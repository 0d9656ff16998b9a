package main

import (
	"sort"
	"strconv"
	"time"

	"ssbyz/internal/eventloop"
	"ssbyz/internal/msglog"
	"ssbyz/internal/protocol"
	"ssbyz/internal/simtime"
	"ssbyz/internal/wire"
)

// Leaf drivers time the layers that sit below both seams — the message
// log, the scheduler wheel, the codec, the mailbox, the recorder — by
// calling their public functions in a loop on one goroutine. Each driver
// runs leafReps times and reports the median per-call cost in ns.
const leafReps = 5

// leafSink keeps results alive so the compiler cannot drop a measured call.
var leafSink int

type noopEvent struct{}

func (noopEvent) RunEvent() {}

// leaf times body (which performs calls calls) leafReps times.
func leaf(calls int, body func()) float64 {
	per := make([]float64, leafReps)
	for r := range per {
		t0 := time.Now()
		body()
		per[r] = float64(time.Since(t0).Nanoseconds()) / float64(calls)
	}
	sort.Float64s(per)
	return quantile(per, 0.5)
}

// leafMetrics runs every leaf driver. scale shrinks the loops for the
// smoke test (1 = full size).
func leafMetrics(scale int) map[string]float64 {
	out := map[string]float64{}
	const senders = 64 // distinct senders per key, the n of sim-scale
	keys := 4096 / scale
	newKeys := func() []msglog.Key {
		ks := make([]msglog.Key, keys)
		for i := range ks {
			ks[i] = msglog.Key{Kind: protocol.Echo, G: 0, M: "v", P: protocol.NodeID(i % senders), K: i / senders}
		}
		return ks
	}
	ks := newKeys()
	var log *msglog.Log
	out["msglog.record_ns"] = leaf(keys*senders, func() {
		log = msglog.New(0)
		for s := 0; s < senders; s++ {
			for _, k := range ks {
				log.Record(k, protocol.NodeID(s), simtime.Local(1000+s))
			}
		}
	})
	out["msglog.count_within_ns"] = leaf(keys*senders, func() {
		for s := 0; s < senders; s++ {
			for _, k := range ks {
				leafSink += log.CountWithin(k, simtime.Duration(s), 1000+senders)
			}
		}
	})
	out["msglog.kth_newest_ns"] = leaf(keys*senders, func() {
		for s := 1; s <= senders; s++ {
			for _, k := range ks {
				at, _ := log.KthNewest(k, s, 1000+senders)
				leafSink += int(at)
			}
		}
	})

	inFlight := 1_000_000 / scale
	out["simtime.post_pop_ns"] = leaf(inFlight, func() {
		sch := simtime.NewScheduler()
		// Delays spread over [d/2, d] like a broadcast storm's deliveries.
		for i := 0; i < inFlight; i++ {
			sch.PostHandlerAfter(simtime.Duration(500+i%501), noopEvent{})
		}
		sch.RunUntil(2000)
		leafSink += int(sch.Processed())
	})

	frames := 200_000 / scale
	msg := protocol.Message{Kind: protocol.Echo, G: 3, M: "r12g3", P: 7, K: 2, From: 5}
	var payload, frame []byte
	out["wire.encode_ns_per_frame"] = leaf(frames, func() {
		for i := 0; i < frames; i++ {
			payload = wire.AppendMessage(payload[:0], msg)
			frame = wire.AppendFrame(frame[:0], wire.Frame{Kind: wire.FrameMessage,
				From: 5, Epoch: 1 << 60, Sent: int64(i), Payload: payload})
		}
	})
	out["wire.decode_ns_per_frame"] = leaf(frames, func() {
		for i := 0; i < frames; i++ {
			f, _, err := wire.DecodeFrame(frame)
			if err != nil {
				panic(err) // the frame was encoded two lines up
			}
			m, _, err := wire.DecodeMessage(f.Payload)
			if err != nil {
				panic(err)
			}
			leafSink += m.K
		}
	})
	var inner []byte
	ends := make([]int, wire.MaxBatchFrames)
	for i := range ends {
		inner = append(inner, frame...)
		ends[i] = len(inner)
	}
	container := wire.AppendBatch(nil, 5, 1<<60, 1, inner, ends)
	containers := max(frames/wire.MaxBatchFrames, 1)
	out["wire.batch_read_ns_per_frame"] = leaf(containers*wire.MaxBatchFrames, func() {
		for i := 0; i < containers; i++ {
			f, _, err := wire.DecodeFrame(container)
			if err != nil {
				panic(err)
			}
			br, err := wire.ReadBatch(f.Payload)
			if err != nil {
				panic(err)
			}
			for b, ok := br.Next(); ok; b, ok = br.Next() {
				leafSink += len(b)
			}
		}
	})

	events := 500_000 / scale
	out["eventloop.mailbox_ns_per_op"] = leaf(events, func() {
		mb := eventloop.NewMailbox()
		for i := 0; i < events; i++ {
			mb.Enqueue(func() { leafSink++ })
		}
		mb.Enqueue(mb.Close)
		mb.Loop() // drains everything queued, then the Close ends it
	})

	adds := 500_000 / scale
	values := make([]protocol.Value, 64)
	for i := range values {
		values[i] = protocol.Value("v" + strconv.Itoa(i))
	}
	out["protocol.recorder_add_ns"] = leaf(adds, func() {
		rec := protocol.NewRecorder()
		for i := 0; i < adds; i++ {
			rec.Add(protocol.TraceEvent{Kind: protocol.EvAccept, Node: protocol.NodeID(i % 64),
				RT: simtime.Real(i), M: values[i%64], K: i % 8})
		}
		leafSink += rec.Len()
	})
	return out
}
