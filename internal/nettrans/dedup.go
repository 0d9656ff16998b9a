package nettrans

import (
	"bytes"
	"encoding/binary"
	"sync"

	"ssbyz/internal/protocol"
	"ssbyz/internal/simtime"
	"ssbyz/internal/wire"
)

// Receive-side duplicate suppression: the transport-level defense that
// restores the paper's at-most-once delivery from datagram semantics. A
// UDP network (or a duplicate/replay attacker) may deliver the same
// frame twice; the protocol state machines are idempotent under
// identical re-delivery, but counting and proving the defense requires
// catching the duplicate at the transport. A frame is a duplicate when
// a byte-identical (sender, send-tick, payload) triple was already
// accepted within the last d ticks — beyond d the deadline drop owns
// the decision (UDP), so the memory of seen frames can be bounded by
// the window. Matching is on the full bytes, never just a hash, so a
// hash collision can only cost a comparison, never a legitimate
// delivery.
//
// The structure is built for the wire-rate hot path (DESIGN.md §11),
// where every
// accepted frame passes through it (the original whole-table sweep was
// the single hottest function of an n=16 loopback flood — over half its
// CPU). Three ideas keep it O(1) amortized with near-zero GC cost:
//
//  1. Generation rotation instead of per-entry eviction: cur holds
//     acceptances since the last rotation, prev the generation before.
//     Once cur is a full window old it becomes prev, and the old prev —
//     all of it older than the window — is recycled wholesale. The
//     membership test stays exact because matching re-checks each
//     candidate's age; rotation only bounds memory (≤ two windows of
//     traffic, no sweeps, no delete churn).
//  2. Pointer-free tables: entries record their payload as offsets into
//     a per-generation arena, so the maps contain no pointers and the
//     collector never scans them; the arena is a single byte slice,
//     reused across rotations.
//  3. Single-entry fast path: hash collisions between distinct triples
//     are vanishingly rare, so the main table holds one entry per key
//     inline and spills extras to a tiny overflow table.
type dedup struct {
	window simtime.Duration

	mu       sync.Mutex
	cur      dedupGen
	prev     dedupGen
	curStart simtime.Real // acceptance clock at the last rotation
	started  bool
}

// dedupRef is one remembered accepted frame: the identifying triple
// with the payload stored as an arena span, plus the acceptance clock
// for the exact-window check. No pointers — the tables stay invisible
// to the garbage collector.
type dedupRef struct {
	from     protocol.NodeID
	sent     int64
	at       simtime.Real
	off, end uint64 // payload span in the generation's arena
}

// dedupGen is one rotation generation.
type dedupGen struct {
	tab   map[uint64]dedupRef
	over  map[uint64][]dedupRef // rare: distinct triples sharing a hash
	arena []byte
}

// init sizes a fresh generation for entries frames carrying arena
// payload bytes (at least 64 entries).
func (g *dedupGen) init(entries, arena int) {
	g.tab = make(map[uint64]dedupRef, max(entries, 64))
	g.arena = make([]byte, 0, arena)
}

// reset empties a generation for reuse; the table and the arena keep
// their capacity.
func (g *dedupGen) reset() {
	clear(g.tab)
	if g.over != nil {
		clear(g.over)
	}
	g.arena = g.arena[:0]
}

// match scans this generation for a live byte-identical triple. taken
// reports whether the main table holds an entry under key at all, so an
// insert that follows needs no second lookup.
func (g *dedupGen) match(key uint64, f wire.Frame, now simtime.Real, w simtime.Duration) (dup, taken bool) {
	e, ok := g.tab[key]
	if !ok {
		return false, false
	}
	if g.refEqual(e, f, now, w) {
		return true, true
	}
	for _, e := range g.over[key] {
		if g.refEqual(e, f, now, w) {
			return true, true
		}
	}
	return false, true
}

func (g *dedupGen) refEqual(e dedupRef, f wire.Frame, now simtime.Real, w simtime.Duration) bool {
	if now-e.at > simtime.Real(w) {
		return false // expired: beyond the window the deadline drop rules
	}
	return e.from == f.From && e.sent == f.Sent && bytes.Equal(g.arena[e.off:e.end], f.Payload)
}

// insert records an accepted frame in this generation; taken is match's
// report for the same key.
func (g *dedupGen) insert(key uint64, f wire.Frame, now simtime.Real, taken bool) {
	off := uint64(len(g.arena))
	g.arena = append(g.arena, f.Payload...)
	e := dedupRef{from: f.From, sent: f.Sent, at: now, off: off, end: uint64(len(g.arena))}
	if taken {
		if g.over == nil {
			g.over = make(map[uint64][]dedupRef)
		}
		g.over[key] = append(g.over[key], e)
		return
	}
	g.tab[key] = e
}

// seen reports whether f is a byte-identical duplicate of a frame
// accepted within the window, and records f if not.
func (d *dedup) seen(f wire.Frame, now simtime.Real) bool {
	key := dedupHash(f)
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.started {
		d.cur.init(0, 0)
		d.curStart = now
		d.started = true
	} else if now-d.curStart > simtime.Real(d.window) {
		// cur spans a full window: everything still in prev is older than
		// the window and can never match again — recycle it wholesale.
		d.prev, d.cur = d.cur, d.prev
		if d.cur.tab == nil {
			// The second generation is born at the first rotation, sized to
			// the window that just closed: the traffic of the next window
			// fills it without regrowing from 64 entries.
			d.cur.init(len(d.prev.tab), len(d.prev.arena))
		} else {
			d.cur.reset()
		}
		d.curStart = now
	}
	dup, taken := d.cur.match(key, f, now, d.window)
	if dup {
		return true
	}
	if dup, _ := d.prev.match(key, f, now, d.window); dup {
		return true
	}
	d.cur.insert(key, f, now, taken)
	return false
}

// dedupHash mixes the identifying triple, eight payload bytes per step
// (FNV-1a structure widened to word steps — hash quality only steers
// collision rates here; entries disambiguate by exact comparison, so a
// weak spot costs comparisons, never correctness).
func dedupHash(f wire.Frame) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	h = (h ^ uint64(f.From)) * prime
	h = (h ^ uint64(f.Sent)) * prime
	p := f.Payload
	for len(p) >= 8 {
		h = (h ^ binary.LittleEndian.Uint64(p)) * prime
		p = p[8:]
	}
	for _, b := range p {
		h = (h ^ uint64(b)) * prime
	}
	h = (h ^ uint64(len(f.Payload))) * prime
	return h
}
