package protocol

import "sync"

// maxEventKind bounds the kind index of the recorder, derived from the
// EventKind block's sentinel so a newly added kind is indexed without
// touching this file.
const maxEventKind = int(numEventKinds) - 1

// Recorder accumulates trace events from every node in a run and maintains
// a per-kind index over them, so the property checkers read each kind in
// one presized pass instead of re-scanning (and re-copying) the full trace
// per predicate.
//
// NewRecorder returns a locked recorder, safe for concurrent use (the live
// transport appends from many goroutines). NewSequentialRecorder omits the
// mutex for the discrete-event simulator, which drives a world — and
// therefore its recorder — from a single goroutine; there the lock would
// be a pure per-event round-trip with nothing to guard.
type Recorder struct {
	mu     sync.Mutex
	unsync bool
	events []TraceEvent
	// byKind[k] lists the positions of kind-k events within events, in
	// arrival order. Positions (not copies): one TraceEvent is ~9 words,
	// and most kinds are read a handful of times per run.
	byKind [maxEventKind + 1][]int32
	// notify[k] is the channel Notify(k) hands out; the next kind-k Add
	// closes it. Nil until someone asks, so the simulator pays nothing.
	notify [maxEventKind + 1]chan struct{}
}

// NewRecorder returns an empty recorder safe for concurrent use.
func NewRecorder() *Recorder { return &Recorder{} }

// NewSequentialRecorder returns an empty recorder for single-goroutine
// use: same semantics, no locking. Handing it to multiple goroutines is a
// data race.
func NewSequentialRecorder() *Recorder { return &Recorder{unsync: true} }

func (r *Recorder) lock() {
	if !r.unsync {
		r.mu.Lock()
	}
}

func (r *Recorder) unlock() {
	if !r.unsync {
		r.mu.Unlock()
	}
}

// Add appends one event.
func (r *Recorder) Add(ev TraceEvent) {
	r.lock()
	defer r.unlock()
	if k := int(ev.Kind); k >= 0 && k <= maxEventKind {
		r.byKind[k] = append(r.byKind[k], int32(len(r.events)))
		if ch := r.notify[k]; ch != nil {
			close(ch)
			r.notify[k] = nil
		}
	}
	r.events = append(r.events, ev)
}

// Notify returns a channel that is closed by the next Add of the given
// kind. Closing never blocks Add, and every goroutine holding the channel
// wakes, so any number of waiters may share a kind with nothing to
// unsubscribe. A waiter takes the channel first, then reads the recorder,
// then blocks on it: an event recorded after the read cannot be missed.
// An out-of-range kind yields nil, which never fires.
func (r *Recorder) Notify(kind EventKind) <-chan struct{} {
	r.lock()
	defer r.unlock()
	k := int(kind)
	if k < 0 || k > maxEventKind {
		return nil
	}
	if r.notify[k] == nil {
		r.notify[k] = make(chan struct{})
	}
	return r.notify[k]
}

// Events returns a copy of all recorded events in arrival order.
func (r *Recorder) Events() []TraceEvent {
	r.lock()
	defer r.unlock()
	out := make([]TraceEvent, len(r.events))
	copy(out, r.events)
	return out
}

// Filter returns the events satisfying pred, in arrival order.
func (r *Recorder) Filter(pred func(TraceEvent) bool) []TraceEvent {
	r.lock()
	defer r.unlock()
	var out []TraceEvent
	for _, ev := range r.events {
		if pred(ev) {
			out = append(out, ev)
		}
	}
	return out
}

// ByKind returns the events of one kind, in arrival order. The result is
// presized from the kind index: one allocation, no full-trace scan.
func (r *Recorder) ByKind(kind EventKind) []TraceEvent {
	r.lock()
	defer r.unlock()
	k := int(kind)
	if k < 0 || k > maxEventKind {
		return nil
	}
	idx := r.byKind[k]
	if len(idx) == 0 {
		return nil
	}
	out := make([]TraceEvent, len(idx))
	for i, pos := range idx {
		out[i] = r.events[pos]
	}
	return out
}

// ForEachKind calls fn for every event of the given kinds, in arrival
// order across all of them, without allocating. With one kind this is a
// walk of its index; with several it is an ordered merge of the indices.
// fn must not call back into the recorder.
func (r *Recorder) ForEachKind(fn func(TraceEvent), kinds ...EventKind) {
	r.lock()
	defer r.unlock()
	switch len(kinds) {
	case 0:
		return
	case 1:
		k := int(kinds[0])
		if k < 0 || k > maxEventKind {
			return
		}
		for _, pos := range r.byKind[k] {
			fn(r.events[pos])
		}
		return
	}
	// Ordered merge by position. cursors[i] walks kinds[i]'s index; the
	// smallest position across cursors is the next event in arrival order.
	if len(kinds) > maxEventKind+1 {
		kinds = kinds[:maxEventKind+1]
	}
	var cursors [maxEventKind + 1]int
	for {
		best, bestPos := -1, int32(0)
		for i, kind := range kinds {
			k := int(kind)
			if k < 0 || k > maxEventKind || cursors[i] >= len(r.byKind[k]) {
				continue
			}
			if pos := r.byKind[k][cursors[i]]; best < 0 || pos < bestPos {
				best, bestPos = i, pos
			}
		}
		if best < 0 {
			return
		}
		cursors[best]++
		fn(r.events[bestPos])
	}
}

// ForEachKindFrom calls fn for every kind-event recorded at cursor
// position start or later (positions count events of that kind only, in
// arrival order) and returns the new cursor. It lets a live consumer — the
// service pump watching for decide returns — drain a kind incrementally
// without re-copying the prefix it has already seen.
func (r *Recorder) ForEachKindFrom(kind EventKind, start int, fn func(TraceEvent)) int {
	r.lock()
	defer r.unlock()
	k := int(kind)
	if k < 0 || k > maxEventKind {
		return start
	}
	idx := r.byKind[k]
	if start < 0 {
		start = 0
	}
	for _, pos := range idx[min(start, len(idx)):] {
		fn(r.events[pos])
	}
	return len(idx)
}

// KindLen returns how many events of one kind are recorded, without
// copying anything.
func (r *Recorder) KindLen(kind EventKind) int {
	r.lock()
	defer r.unlock()
	k := int(kind)
	if k < 0 || k > maxEventKind {
		return 0
	}
	return len(r.byKind[k])
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	r.lock()
	defer r.unlock()
	return len(r.events)
}
