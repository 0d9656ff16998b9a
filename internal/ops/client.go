package ops

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"ssbyz/internal/protocol"
	"ssbyz/internal/wire"
)

// Client is the orchestrator's HTTP side of the control plane: thin
// typed wrappers over the daemon endpoints. The multi-process drivers
// (ssbyz-cluster -procs, ssbyz-bench -cluster -procs) reach every
// daemon through it, via Fleet: to initiate, fault, observe, collect
// traces, roll, and drain.
type Client struct {
	base string
	http *http.Client
}

// NewClient targets one daemon's ops address ("127.0.0.1:7800").
func NewClient(addr string) *Client {
	return &Client{
		base: "http://" + addr,
		http: &http.Client{Timeout: 10 * time.Second},
	}
}

// Health fetches /healthz. The returned ok reports the HTTP verdict
// (200 = stabilized); the body is decoded either way.
func (c *Client) Health() (Health, bool, error) {
	resp, err := c.http.Get(c.base + "/healthz")
	if err != nil {
		return Health{}, false, err
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return Health{}, false, err
	}
	return h, resp.StatusCode == http.StatusOK, nil
}

// Metrics fetches /metrics.
func (c *Client) Metrics() (Metrics, error) {
	resp, err := c.http.Get(c.base + "/metrics")
	if err != nil {
		return Metrics{}, err
	}
	defer resp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return Metrics{}, err
	}
	return m, nil
}

// TraceEvents fetches /trace and decodes the node's recorded trace.
func (c *Client) TraceEvents() ([]protocol.TraceEvent, error) {
	resp, err := c.http.Get(c.base + "/trace")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("ops: /trace: HTTP %d", resp.StatusCode)
	}
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	var events []protocol.TraceEvent
	for len(blob) > 0 {
		ev, n, err := wire.DecodeTraceEvent(blob)
		if err != nil {
			return nil, fmt.Errorf("ops: /trace: %w", err)
		}
		events = append(events, ev)
		blob = blob[n:]
	}
	return events, nil
}

// Initiate posts /initiate: start agreement on value in the given slot.
func (c *Client) Initiate(slot int, value string) error {
	return c.post("/initiate", initiateReq{Slot: slot, Value: value})
}

// Fault posts /fault: corrupt the daemon's running state in place.
func (c *Client) Fault(seed int64, severityPermille int) error {
	return c.post("/fault", faultReq{Seed: seed, SeverityPermille: severityPermille})
}

// BumpEpoch posts /bump-epoch: expect peer at the given incarnation.
func (c *Client) BumpEpoch(peer int, incarnation uint64) error {
	return c.post("/bump-epoch", bumpReq{Peer: peer, Incarnation: incarnation})
}

// Drain posts /drain; Stop posts /stop. Both ask the daemon to exit
// through its ordered shutdown path.
func (c *Client) Drain() error { return c.post("/drain", struct{}{}) }
func (c *Client) Stop() error  { return c.post("/stop", struct{}{}) }

// Events streams /events until ctx is cancelled or the daemon closes
// the stream (clean EOF on drain), delivering each NDJSON event to fn.
func (c *Client) Events(ctx context.Context, fn func(Event)) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/events", nil)
	if err != nil {
		return err
	}
	// Streams outlive the client's request timeout by design.
	streamer := &http.Client{}
	resp, err := streamer.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("ops: /events: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return err
		}
		fn(ev)
	}
	return sc.Err()
}

// AwaitStabilized polls /healthz until it reports stabilized or the
// timeout passes — the orchestrator's roll/Δstb assertion.
func (c *Client) AwaitStabilized(timeout time.Duration) (Health, error) {
	deadline := time.Now().Add(timeout)
	var last Health
	for {
		h, ok, err := c.Health()
		if err == nil {
			last = h
			if ok {
				return h, nil
			}
		}
		if time.Now().After(deadline) {
			return last, fmt.Errorf("ops: not stabilized within %v (last state %q)", timeout, last.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (c *Client) post(path string, body any) error {
	blob, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(blob))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		if e.Error == "" {
			e.Error = resp.Status
		}
		return fmt.Errorf("ops: %s: %s", path, e.Error)
	}
	return nil
}
