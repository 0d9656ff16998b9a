package ops

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"

	"ssbyz/internal/core"
	"ssbyz/internal/nettrans"
	"ssbyz/internal/protocol"
	"ssbyz/internal/wire"
)

// Server is a node's REST control plane: the podman-style per-daemon
// API and the daemon's only orchestration surface. GET /healthz (200
// stabilized / 503 otherwise), GET /metrics, GET /events (NDJSON
// stream), GET /trace (the recorded trace as wire records), and POST
// /initiate, /fault, /bump-epoch, /drain, /stop.
//
// Shutdown ordering is part of the contract: Shutdown first closes the
// event bus so every /events subscriber reads a clean EOF, then stops
// the HTTP listener and waits for in-flight handlers. Only after
// Shutdown returns may the caller tear the node's transports down —
// reversing that order is the reset-instead-of-EOF bug the Stop-ordering
// test pins.
type Server struct {
	ctl  *Control
	be   NodeBackend
	ln   net.Listener
	http *http.Server

	doneOnce sync.Once
	done     chan string
}

// Serve starts the control plane on ln (which it takes ownership of).
func Serve(ln net.Listener, ctl *Control) *Server {
	s := newServer(ctl)
	s.ln = ln
	go func() { _ = s.http.Serve(ln) }()
	return s
}

// newServer builds the control plane's handler without serving it.
func newServer(ctl *Control) *Server {
	s := &Server{
		ctl:  ctl,
		be:   ctl.be,
		done: make(chan string, 1),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /events", s.handleEvents)
	mux.HandleFunc("GET /trace", s.handleTrace)
	mux.HandleFunc("POST /initiate", s.handleInitiate)
	mux.HandleFunc("POST /fault", s.handleFault)
	mux.HandleFunc("POST /bump-epoch", s.handleBumpEpoch)
	mux.HandleFunc("POST /drain", s.handleSignal("drain"))
	mux.HandleFunc("POST /stop", s.handleSignal("stop"))
	s.http = &http.Server{Handler: mux}
	return s
}

// Addr is the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Done delivers the reason ("drain" or "stop") once an operator asks
// the daemon to exit.
func (s *Server) Done() <-chan string { return s.done }

// Shutdown drains the control plane in the contractual order: event bus
// first (subscribers get EOF while the connections are still healthy),
// then the HTTP server, waiting for in-flight handlers. The caller
// closes transports only after this returns.
func (s *Server) Shutdown(ctx context.Context) error {
	s.ctl.Close()
	return s.http.Shutdown(ctx)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.ctl.Health()
	code := http.StatusOK
	if h.State != StateStabilized {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.ctl.Metrics())
}

// handleEvents streams the bus as NDJSON until the client goes away or
// the bus closes (shutdown — the clean-EOF half of the Stop ordering).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	ch, cancel := s.ctl.Bus().Subscribe(256)
	defer cancel()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		flusher.Flush()
	}
	enc := json.NewEncoder(w)
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return // bus closed: the stream ends in a clean EOF
			}
			if err := enc.Encode(ev); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		case <-r.Context().Done():
			return
		}
	}
}

// handleTrace serves every trace event the node has recorded (past the
// first ?from=k, a poller's cursor), as concatenated
// wire.AppendTraceEvent records. Unlike /events, which drops events at
// slow subscribers by design, it is the complete trace a property
// battery can judge.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	events := s.be.TraceEvents()
	if from, err := strconv.Atoi(r.URL.Query().Get("from")); err == nil && from > 0 {
		events = events[min(from, len(events)):]
	}
	var body []byte
	for _, ev := range events {
		body = wire.AppendTraceEvent(body, ev)
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// initiateReq is the POST /initiate body.
type initiateReq struct {
	Slot  int    `json:"slot"`
	Value string `json:"value"`
}

func (s *Server) handleInitiate(w http.ResponseWriter, r *http.Request) {
	var req initiateReq
	if !readJSON(w, r, &req) {
		return
	}
	if req.Value == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("initiate needs a value"))
		return
	}
	if err := s.be.Initiate(req.Slot, protocol.Value(req.Value)); err != nil {
		// IG1–IG3 sending-validity refusals are operator-state conflicts,
		// not server failures.
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "initiated", "value": req.Value})
}

// faultReq is the POST /fault body.
type faultReq struct {
	Seed             int64 `json:"seed"`
	SeverityPermille int   `json:"severity_permille"`
	InFlight         int   `json:"in_flight"`
}

func (s *Server) handleFault(w http.ResponseWriter, r *http.Request) {
	var req faultReq
	if !readJSON(w, r, &req) {
		return
	}
	if req.SeverityPermille <= 0 {
		req.SeverityPermille = 1000
	}
	if err := s.be.InjectFault(req.Seed, req.SeverityPermille, req.InFlight); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.ctl.MarkFault("fault", map[string]string{
		"seed":              fmt.Sprint(req.Seed),
		"severity_permille": fmt.Sprint(req.SeverityPermille),
	})
	writeJSON(w, http.StatusOK, map[string]string{"status": "fault injected"})
}

// bumpReq is the POST /bump-epoch body: a peer's roll is in progress,
// raise its expected incarnation.
type bumpReq struct {
	Peer        int    `json:"peer"`
	Incarnation uint64 `json:"incarnation"`
}

func (s *Server) handleBumpEpoch(w http.ResponseWriter, r *http.Request) {
	var req bumpReq
	if !readJSON(w, r, &req) {
		return
	}
	if err := s.be.BumpPeerEpoch(protocol.NodeID(req.Peer), req.Incarnation); err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, nettrans.ErrEpochSkew) {
			code = http.StatusConflict
		}
		writeError(w, code, err)
		return
	}
	s.ctl.MarkEpoch(protocol.NodeID(req.Peer), req.Incarnation)
	writeJSON(w, http.StatusOK, map[string]string{"status": "epoch bumped"})
}

// handleSignal builds the /drain and /stop handlers: publish the event,
// deliver the reason to Done, acknowledge. The daemon owns the actual
// teardown ordering.
func (s *Server) handleSignal(reason string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.ctl.Bus().Publish(Event{Type: reason, Node: int(s.be.ID()), Tick: int64(s.be.NowTicks())})
		s.doneOnce.Do(func() { s.done <- reason })
		writeJSON(w, http.StatusOK, map[string]string{"status": reason})
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// errorBody is every error response. Reason names an IG1 or IG3
// refusal, which the client maps back to its core sentinel so a pump
// re-polls it over REST as it does in process.
type errorBody struct {
	Error  string `json:"error"`
	Reason string `json:"reason,omitempty"`
}

var refusalReasons = map[string]error{"ig1": core.ErrTooSoon, "ig3": core.ErrBackoff}

func writeError(w http.ResponseWriter, code int, err error) {
	body := errorBody{Error: err.Error()}
	for reason, sentinel := range refusalReasons {
		if errors.Is(err, sentinel) {
			body.Reason = reason
		}
	}
	writeJSON(w, code, body)
}

// readJSON decodes the request body into v, answering 400 on failure.
func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}
