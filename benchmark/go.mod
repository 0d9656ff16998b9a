module ssbyz/benchmark

go 1.24

require ssbyz v0.0.0

replace ssbyz => ../
