package simnet

import (
	"testing"

	"ssbyz/internal/protocol"
	"ssbyz/internal/simtime"
)

// benchFanout drives one node's Broadcast through the transport with no
// attached nodes (deliveries dispatch to nil and return), isolating the
// fan-out + scheduler cost of the two delivery paths.
func benchFanout(b *testing.B, legacy bool, dmin, dmax simtime.Duration) {
	pp := protocol.DefaultParams(64)
	w, err := New(Config{Params: pp, Seed: 1, DelayMin: dmin, DelayMax: dmax, LegacyFanout: legacy})
	if err != nil {
		b.Fatal(err)
	}
	rt := w.rts[0]
	m := protocol.Message{Kind: protocol.Echo, G: 0, M: "v", P: 1, K: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Broadcast(m)
		w.RunUntil(w.Now() + simtime.Real(dmax) + 1)
	}
}

// BenchmarkBroadcastFanout compares the batched per-tick delivery path
// against the legacy one, one argument event per recipient, at n = 64.
// "narrow" is a deterministic-delay network (every recipient shares one
// arrival tick, so one batch event replaces 64 argument events); "wide"
// is the standard δ ∈ [d/2, d] spread, where recipients scatter across
// ~d/2 ticks and the adaptive cutover (simnet.World.useBatch) routes
// broadcasts down the per-recipient path — the two "wide" numbers must
// therefore be statistically identical.
func BenchmarkBroadcastFanout(b *testing.B) {
	pp := protocol.DefaultParams(64)
	b.Run("batched/narrow", func(b *testing.B) { benchFanout(b, false, 5, 5) })
	b.Run("legacy/narrow", func(b *testing.B) { benchFanout(b, true, 5, 5) })
	b.Run("batched/wide", func(b *testing.B) { benchFanout(b, false, pp.D/2, pp.D) })
	b.Run("legacy/wide", func(b *testing.B) { benchFanout(b, true, pp.D/2, pp.D) })
}
