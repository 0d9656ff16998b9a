// Command ssbyz-node runs ONE node of a live ss-Byz-Agree cluster over
// real sockets: the daemon form of the protocol, where each process owns
// one identity of the committee and everything between processes travels
// through the internal/wire codec over UDP (paper-faithful: loss allowed,
// delay bounded by deadline drops) or TCP (lossless baseline).
//
// Usage:
//
//	ssbyz-node -manifest cluster.json -id 2 [-ops 127.0.0.1:7800]
//	           [-ops-addr-file f] [-incarnation k] [-peer-incarnations list]
//
// The manifest (internal/nettrans.Manifest) is the cluster's single
// source of truth: committee parameters, tick length, every node's listen
// address, the shared epoch (the wall-clock instant all local clocks read
// tick 0, and the incarnation id every frame carries), and an optional
// chaos schedule. Start one daemon per manifest entry and the cluster
// assembles itself; `ssbyz-cluster -procs` automates exactly that on
// loopback (internal/ops.Fleet).
//
// -ops serves the internal/ops REST control plane (libpod-style), the
// daemon's one orchestration surface: GET /healthz reports the
// protocol-level health state (stabilized / re-stabilizing /
// partitioned, derived from the trace and the transport counters against
// the Δstb = 2Δreset budget), GET /metrics the full counter vector, GET
// /events an NDJSON event stream, GET /trace every recorded trace event
// as wire records (what a driver feeds the property battery), and POST
// /initiate (act as the General, subject to the sending-validity
// criteria IG1–IG3), /fault (corrupt the RUNNING protocol state in
// place: the live form of the transient faults the paper's
// self-stabilization property quantifies over), /bump-epoch, /drain and
// /stop. Without -ops, trace events print to stdout. -incarnation is the
// node's life number: a rolling replacement reboots the same manifest
// slot at the previous incarnation + 1, every frame carries epoch +
// incarnation as its wire epoch id, and peers (told via POST /bump-epoch
// or -peer-incarnations) reject frames from the old life (epoch_drops).
//
// The daemon exits on SIGINT/SIGTERM or a REST drain/stop order, and
// shutdown is ordered: the ops server drains first (the event bus
// closes, so /events subscribers read a clean EOF, then in-flight
// handlers finish), and only then do the node's transports come down.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"ssbyz/internal/clock"
	"ssbyz/internal/core"
	"ssbyz/internal/nettrans"
	"ssbyz/internal/ops"
	"ssbyz/internal/protocol"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ssbyz-node:", err)
		os.Exit(1)
	}
}

// nodeFlags is the resolved flag set, defined through defineFlags so
// the README flag table can be pinned against it by flags_test.go.
type nodeFlags struct {
	manifest    *string
	id          *int
	ops         *string
	opsAddrFile *string
	incarnation *uint64
	peerIncs    *string
}

// defineFlags registers every ssbyz-node flag on fs; README.md's flag
// table is checked against these definitions.
func defineFlags(fs *flag.FlagSet) *nodeFlags {
	return &nodeFlags{
		manifest:    fs.String("manifest", "", "cluster manifest JSON (required)"),
		id:          fs.Int("id", -1, "this node's id in the manifest (required)"),
		ops:         fs.String("ops", "", "serve the REST control plane (healthz/metrics/events/trace + initiate/fault/bump-epoch/drain/stop) on this TCP address (empty = off; trace events print to stdout)"),
		opsAddrFile: fs.String("ops-addr-file", "", "write the bound ops address to this file (for -ops 127.0.0.1:0 orchestration)"),
		incarnation: fs.Uint64("incarnation", 0, "this node's incarnation: a rolling replacement reboots the slot at the previous incarnation + 1"),
		peerIncs:    fs.String("peer-incarnations", "", "comma-separated expected incarnation per peer (n values; default all 0); advanced at runtime via POST /bump-epoch"),
	}
}

func run() error {
	f := defineFlags(flag.CommandLine)
	flag.Parse()

	if *f.manifest == "" || *f.id < 0 {
		return fmt.Errorf("both -manifest and -id are required (see -h)")
	}
	blob, err := os.ReadFile(*f.manifest)
	if err != nil {
		return err
	}
	m, err := nettrans.ParseManifest(blob)
	if err != nil {
		return err
	}
	if *f.id >= m.N {
		return fmt.Errorf("id %d outside manifest committee [0,%d)", *f.id, m.N)
	}
	nodeID := protocol.NodeID(*f.id)
	peerIncarnations, err := parsePeerIncarnations(*f.peerIncs, m.N)
	if err != nil {
		return err
	}

	// With -ops, every trace event feeds the control plane's health
	// machine (the full trace stays in the node's recorder for GET
	// /trace). The control attaches right after the node starts; the
	// atomic keeps the sink race-free during that window.
	var opsCtl atomic.Pointer[ops.Control]
	sink := func(ev protocol.TraceEvent) {
		if c := opsCtl.Load(); c != nil {
			c.Observe(ev)
		}
	}
	if *f.ops == "" {
		sink = func(ev protocol.TraceEvent) {
			fmt.Printf("trace node=%d kind=%v G=%d m=%q rt=%d\n", ev.Node, ev.Kind, ev.G, ev.M, ev.RT)
		}
	}

	// The daemon is the one runtime that is always wall-clock, and it says
	// so explicitly: every wait below and the node's whole timer stack run
	// on this injected clock (the in-process runtimes inject a *clock.Fake
	// through the same seams — DESIGN.md §9).
	clk := clock.Real()

	// All daemons sleep until the shared epoch so tick 0 means the same
	// wall instant everywhere (the manifest sets the epoch slightly in the
	// future to cover process start-up).
	if wait := time.Until(m.Epoch()); wait > 0 {
		clk.Sleep(wait)
	}

	cfg := m.NodeConfig(nodeID, nil, sink)
	cfg.Clock = clk
	cfg.Incarnation = *f.incarnation
	cfg.PeerIncarnations = peerIncarnations
	nn, err := nettrans.Start(cfg, core.NewNode())
	if err != nil {
		return err
	}
	defer nn.Stop()
	fmt.Printf("ssbyz-node %d up: %s %s, n=%d f=%d d=%d ticks of %v, incarnation %d\n",
		nodeID, m.Transport, nn.Addr(), m.N, m.Params().F, m.D, m.Tick(), *f.incarnation)

	// The REST control plane (DESIGN.md §12). It owns its listener;
	// Shutdown drains it BEFORE the node's transports come down.
	var srv *ops.Server
	var opsDone <-chan string
	if *f.ops != "" {
		ln, lerr := net.Listen("tcp", *f.ops)
		if lerr != nil {
			return fmt.Errorf("ops listener: %w", lerr)
		}
		ctl := ops.NewControl(&ops.NetBackend{NN: nn})
		opsCtl.Store(ctl)
		srv = ops.Serve(ln, ctl)
		opsDone = srv.Done()
		fmt.Printf("ssbyz-node %d ops: http://%s\n", nodeID, srv.Addr())
		if *f.opsAddrFile != "" {
			if werr := os.WriteFile(*f.opsAddrFile, []byte(srv.Addr()), 0o644); werr != nil {
				return fmt.Errorf("ops addr file: %w", werr)
			}
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	reason := "signal"
	select {
	case <-sig:
	case reason = <-opsDone: // REST /drain or /stop
	}

	// Ordered shutdown (the contract the Stop-ordering test pins): drain
	// the ops listeners first — the event bus closes, so every /events
	// subscriber reads a clean EOF over a still-healthy connection, then
	// in-flight handlers finish. Only then stop the transports.
	if srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = srv.Shutdown(ctx)
		cancel()
	}
	stats := nn.Stats()
	nn.Stop()
	fmt.Printf("ssbyz-node %d down (%s): %s\n", nodeID, reason, stats.Pairs())
	return nil
}

// parsePeerIncarnations decodes the -peer-incarnations list: empty means
// every peer at incarnation 0, otherwise exactly n comma-separated
// values indexed by node id.
func parsePeerIncarnations(s string, n int) ([]uint64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) != n {
		return nil, fmt.Errorf("-peer-incarnations has %d values, want n=%d", len(parts), n)
	}
	out := make([]uint64, n)
	for i, p := range parts {
		v, err := strconv.ParseUint(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("-peer-incarnations[%d]: %w", i, err)
		}
		out[i] = v
	}
	return out, nil
}
