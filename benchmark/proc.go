package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"syscall"
)

// procSample is the process-wide cost read at one instant.
type procSample struct {
	cpuNs      int64  // user + system CPU time
	allocBytes uint64 // cumulative heap bytes allocated
	gcPauseNs  uint64 // cumulative stop-the-world pause
	heapSys    uint64 // heap address space obtained so far: a high-water mark
}

// procDelta is the cost of a measuring window.
type procDelta struct {
	cpuMs, allocBytes, gcPauseMs, peakHeapMB float64
}

func readProc() procSample {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{
		cpuNs:      ru.Utime.Nano() + ru.Stime.Nano(),
		allocBytes: ms.TotalAlloc,
		gcPauseNs:  ms.PauseTotalNs,
		heapSys:    ms.HeapSys,
	}
}

func (s procSample) since(before procSample) procDelta {
	return procDelta{
		cpuMs:      float64(s.cpuNs-before.cpuNs) / 1e6,
		allocBytes: float64(s.allocBytes - before.allocBytes),
		gcPauseMs:  float64(s.gcPauseNs-before.gcPauseNs) / 1e6,
		peakHeapMB: float64(s.heapSys) / 1e6,
	}
}

// machine is the metadata every report carries.
type machine struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"git_commit"`
}

func readMachine() machine {
	m := machine{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   "unknown",
		Commit:     "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
				m.CPUModel = strings.TrimSpace(val)
				break
			}
		}
	}
	// The go tool stamps the commit into the binary when it builds inside a
	// git work tree; a bare checkout has none to stamp.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					m.Commit += "+dirty"
				}
			}
		}
	}
	return m
}

// cpuSharePkgs are the packages whose flat CPU share is reported, the
// layers of DESIGN.md §5 plus the Go runtime.
var cpuSharePkgs = []string{"msglog", "broadcast", "initaccept", "core", "simnet",
	"simtime", "check", "wire", "nettrans", "runtime"}

// profileCPU runs fn under the CPU profiler and returns the share of flat
// samples per package of cpuSharePkgs. The profile stays in memory.
func profileCPU(fn func()) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("start CPU profile: %w", err)
	}
	fn()
	pprof.StopCPUProfile()
	flat, err := flatByFunction(&buf)
	if err != nil {
		return nil, fmt.Errorf("read CPU profile: %w", err)
	}
	var total int64
	byPkg := map[string]int64{}
	for fn, v := range flat {
		total += v
		byPkg[pkgOf(fn)] += v
	}
	out := map[string]float64{}
	for _, p := range cpuSharePkgs {
		out[p] = ratio(float64(byPkg[p]), float64(total))
	}
	return out, nil
}

// pkgOf maps a symbol to the short package name the shares are keyed by:
// "ssbyz/internal/msglog.(*Log).record" → "msglog"; the Go runtime and its
// internal packages → "runtime".
func pkgOf(fn string) string {
	if i := strings.Index(fn, "["); i >= 0 {
		fn = fn[:i] // type arguments carry import paths of their own
	}
	path := fn
	if i := strings.LastIndex(fn, "/"); i >= 0 {
		path = fn[i+1:]
	}
	pkg, _, _ := strings.Cut(path, ".")
	full := fn[:len(fn)-len(path)] + pkg
	switch {
	case strings.HasPrefix(full, "ssbyz/internal/"):
		return pkg
	case full == "runtime" || strings.HasPrefix(full, "runtime/") || strings.HasPrefix(full, "internal/runtime/"):
		return "runtime"
	}
	return full
}

// flatByFunction decodes a pprof CPU profile (gzipped protobuf) far enough
// to attribute each sample's last value (CPU nanoseconds) to the function
// of its leaf frame. The standard library has no public reader for the
// format it writes; the fields used are Profile{sample=2, location=4,
// function=5, string_table=6}, Sample{location_id=1, value=2},
// Location{id=1, line=4}, Line{function_id=1}, Function{id=1, name=2}.
func flatByFunction(r io.Reader) (map[string]int64, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		leaf  uint64
		value int64
	}
	var samples []sample
	locFunc := map[uint64]uint64{}  // location id → function id of its innermost line
	funcName := map[uint64]uint64{} // function id → string index
	var strs []string
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			first := true
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					ids := packed(v, b)
					if first && len(ids) > 0 {
						s.leaf, first = ids[0], false
					}
				case 2:
					if vals := packed(v, b); len(vals) > 0 {
						s.value = int64(vals[len(vals)-1])
					}
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // Location
			var id, fn uint64
			seenLine := false
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					if seenLine {
						return nil // outer frames of an inlined call
					}
					seenLine = true
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFunc[id] = fn
		case 5: // Function
			var id, name uint64
			if err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, s := range samples {
		name := "unknown"
		if idx := funcName[locFunc[s.leaf]]; idx < uint64(len(strs)) && idx != 0 {
			name = strs[idx]
		}
		out[name] += s.value
	}
	return out, nil
}

// eachField walks one protobuf message. Varint fields arrive in v,
// length-delimited ones in b; fixed-width fields are skipped.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return fmt.Errorf("bad protobuf key")
		}
		msg = msg[n:]
		num, wt := int(key>>3), key&7
		switch wt {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return fmt.Errorf("bad protobuf varint")
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return fmt.Errorf("bad protobuf length")
			}
			if err := fn(num, 0, msg[n:n+int(l)]); err != nil {
				return err
			}
			msg = msg[n+int(l):]
		case 1, 5:
			w := 8
			if wt == 5 {
				w = 4
			}
			if len(msg) < w {
				return fmt.Errorf("bad protobuf fixed field")
			}
			msg = msg[w:]
		default:
			return fmt.Errorf("protobuf wire type %d", wt)
		}
	}
	return nil
}

// packed reads a repeated integer field in either encoding: one varint per
// occurrence (b nil) or a packed run.
func packed(v uint64, b []byte) []uint64 {
	if b == nil {
		return []uint64{v}
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		out = append(out, x)
		b = b[n:]
	}
	return out
}
