package ops

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"ssbyz/internal/protocol"
	"ssbyz/internal/wire"
)

// Client is the orchestrator's HTTP side of the control plane: thin
// typed wrappers over the daemon endpoints the REST fleet drives
// (ssbyz-cluster -procs): initiate, fault, metrics, trace, roll, and
// drain.
type Client struct {
	base string
	http *http.Client
}

// NewClient targets one daemon's ops address ("127.0.0.1:7800") over
// rt (nil = http.DefaultTransport). An in-memory RoundTripper reaches a
// Server's handler with no socket at all.
func NewClient(addr string, rt http.RoundTripper) *Client {
	return &Client{
		base: "http://" + addr,
		http: &http.Client{Transport: rt, Timeout: 10 * time.Second},
	}
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
func (c *Client) TraceEvents() ([]protocol.TraceEvent, error) { return c.TraceFrom(0) }

// TraceFrom fetches /trace?from=cursor: the node's trace records past
// the first cursor ones, so a poller pulls each record once.
func (c *Client) TraceFrom(cursor int) ([]protocol.TraceEvent, error) {
	resp, err := c.http.Get(c.base + "/trace?from=" + strconv.Itoa(cursor))
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
		var e errorBody
		_ = json.NewDecoder(resp.Body).Decode(&e)
		if e.Error == "" {
			e.Error = resp.Status
		}
		// A sending-validity refusal crosses the wire as its core
		// sentinel, so a pump's IG1/IG3 re-poll works over REST.
		if sentinel, ok := refusalReasons[e.Reason]; ok {
			return fmt.Errorf("ops: %s: %w", path, sentinel)
		}
		return fmt.Errorf("ops: %s: %s", path, e.Error)
	}
	return nil
}
