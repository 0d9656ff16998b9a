package msglog

import (
	"testing"

	"ssbyz/internal/protocol"
	"ssbyz/internal/simtime"
)

// populate fills a window with senders×waves records.
func populate(w *Window, senders, waves int, wrap simtime.Duration) {
	for r := 0; r < waves; r++ {
		for s := 0; s < senders; s++ {
			w.rec(protocol.NodeID(s), simtime.Local(r*1000+s), wrap)
		}
	}
}

func BenchmarkWindowRecord(b *testing.B) {
	var w Window
	var seq uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Record(protocol.NodeID(i%31), simtime.Local(i), 31, 0, &seq)
	}
}

func BenchmarkWindowCountWithin(b *testing.B) {
	var w Window
	populate(&w, 31, 4, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.CountWithin(2000, 4000, 0)
	}
}

func BenchmarkWindowKthNewest(b *testing.B) {
	var w Window
	populate(&w, 31, 4, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.KthNewest(11, 4000, 0)
	}
}

func BenchmarkWindowCountWithinWrapped(b *testing.B) {
	var w Window
	populate(&w, 31, 4, 1<<30)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.CountWithin(2000, 4000, 1<<30)
	}
}

func BenchmarkWindowDecay(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		var w Window
		populate(&w, 31, 8, 0)
		b.StartTimer()
		w.Decay(3000, 8000, 0)
	}
}
