package control

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/session"
	"repro/internal/transport"
)

// memSinks hands every recv flow an in-memory capture buffer, keyed by
// flow name, so tests can assert bit-exact delivery.
type memSinks struct {
	mu   sync.Mutex
	bufs map[string]*memBuf
}

type memBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *memBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *memBuf) Close() error { return nil }

func (b *memBuf) bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

func newMemSinks() *memSinks { return &memSinks{bufs: make(map[string]*memBuf)} }

func (m *memSinks) open(spec FlowSpec) (io.WriteCloser, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b := &memBuf{}
	m.bufs[spec.Name] = b
	return b, nil
}

func (m *memSinks) get(name string) *memBuf {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.bufs[name]
}

// seededSource serves app.FillPattern bytes offset by a per-name seed,
// so every flow carries a distinct, reproducible stream.
func seededSource(seed func(name string) int64) func(FlowSpec) (io.ReadCloser, error) {
	return func(spec FlowSpec) (io.ReadCloser, error) {
		return io.NopCloser(&patternSource{off: seed(spec.Name), remaining: spec.Size}), nil
	}
}

func nameSeed(name string) int64 {
	var h int64
	for _, c := range name {
		h = h*131 + int64(c)
	}
	return h << 20
}

func expectPattern(name string, size int64) []byte {
	b := make([]byte, size)
	app.FillPattern(b, nameSeed(name))
	return b
}

// testPlane wires a manager to an in-memory hub and an httptest server.
type testPlane struct {
	hub   *transport.Hub
	sess  *session.Session
	mgr   *Manager
	sinks *memSinks
	srv   *httptest.Server
}

func newTestPlane(t *testing.T, hubOpts []transport.HubOption, sessCfg session.Config) *testPlane {
	t.Helper()
	p := &testPlane{
		hub:   transport.NewHub(hubOpts...),
		sinks: newMemSinks(),
	}
	p.sess = session.New(sessCfg)
	p.mgr = NewManager(ManagerConfig{
		Session: p.sess,
		Dialer: DialerFunc(func(FlowSpec) (Link, error) {
			return Link{Transport: p.hub.Endpoint()}, nil
		}),
		OpenSource: seededSource(nameSeed),
		OpenSink:   p.sinks.open,
	})
	p.srv = httptest.NewServer(NewServer(p.mgr, nil).Handler())
	t.Cleanup(func() {
		p.srv.Close()
		p.sess.Abort()
	})
	return p
}

// do runs one JSON request and decodes the reply into out (when
// non-nil), asserting the expected status code.
func (p *testPlane) do(t *testing.T, method, path string, body any, wantCode int, out any) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, p.srv.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := p.srv.Client().Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantCode {
		t.Fatalf("%s %s = %d, want %d (body: %s)", method, path, resp.StatusCode, wantCode, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, path, raw, err)
		}
	}
}

// waitFlow polls one flow's status until cond holds.
func (p *testPlane) waitFlow(t *testing.T, id int, what string, cond func(FlowStatus) bool) FlowStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	var fs FlowStatus
	for time.Now().Before(deadline) {
		p.do(t, "GET", fmt.Sprintf("/v1/flows/%d", id), nil, http.StatusOK, &fs)
		if cond(fs) {
			return fs
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for flow %d: %s (last: %+v)", id, what, fs)
	return fs
}

// TestControlAdmitTransferObserve drives one whole transfer through
// the HTTP API: admit receiver and sender, watch them complete, check
// the status and metrics endpoints see the same counters, and forget
// the flows.
func TestControlAdmitTransferObserve(t *testing.T) {
	p := newTestPlane(t, nil, session.Config{})
	const size = 64 << 10

	var rcv, snd FlowStatus
	p.do(t, "POST", "/v1/flows", FlowSpec{
		Name: "mirror", Group: "g1", Role: RoleRecv, LocalPort: 2, PeerPort: 1,
		Fec: 8,
	}, http.StatusCreated, &rcv)
	p.do(t, "POST", "/v1/flows", FlowSpec{
		Name: "dist", Group: "g1", Role: RoleSend, Size: size, Receivers: 1,
		LocalPort: 1, PeerPort: 2, MinRateBps: 1e6, MaxRateBps: 64e6,
		Fec: 8,
	}, http.StatusCreated, &snd)
	if rcv.State != StateRunning || snd.State != StateRunning {
		t.Fatalf("admitted states = %s/%s, want running", rcv.State, snd.State)
	}

	snd = p.waitFlow(t, snd.ID, "sender done", func(fs FlowStatus) bool { return fs.State == StateDone })
	rcv = p.waitFlow(t, rcv.ID, "receiver done", func(fs FlowStatus) bool { return fs.State == StateDone })
	if got := p.sinks.get("mirror").bytes(); !bytes.Equal(got, expectPattern("dist", size)) {
		t.Errorf("delivered %d bytes, not bit-exact with the %d-byte source", len(got), size)
	}
	if snd.Sender == nil || snd.Sender.BytesSent != size {
		t.Errorf("sender status counters = %+v, want BytesSent=%d", snd.Sender, size)
	}
	if snd.Sender != nil && snd.Sender.CeilingBps <= 0 {
		t.Errorf("sender CeilingBps = %d, want > 0", snd.Sender.CeilingBps)
	}
	if rcv.Receiver == nil || rcv.Receiver.BytesDelivered != size {
		t.Errorf("receiver status counters = %+v, want BytesDelivered=%d", rcv.Receiver, size)
	}
	// The spec's fec field must reach the sender machine: parity flows
	// even on a loss-free transport (1/K overhead, nothing recovered).
	if snd.Sender != nil && snd.Sender.FecParitySent == 0 {
		t.Error("FlowSpec.Fec did not enable the parity pipeline (FecParitySent = 0)")
	}

	var status StatusReply
	p.do(t, "GET", "/v1/status", nil, http.StatusOK, &status)
	if len(status.Flows) != 2 {
		t.Errorf("status lists %d flows, want 2", len(status.Flows))
	}
	if status.Total.Sender.BytesSent != size || status.Total.Receiver.BytesDelivered != size {
		t.Errorf("aggregate totals = sent %d / delivered %d, want %d/%d",
			status.Total.Sender.BytesSent, status.Total.Receiver.BytesDelivered, size, size)
	}

	resp, err := http.Get(p.srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	metrics := string(raw)
	for _, want := range []string{
		fmt.Sprintf(`hrmc_sender_bytes_sent{flow="dist",id="%d",group="g1"} %d`, snd.ID, size),
		fmt.Sprintf(`hrmc_receiver_bytes_delivered{flow="mirror",id="%d",group="g1"} %d`, rcv.ID, size),
		"# TYPE hrmc_sender_rate_bps gauge",
		"# TYPE hrmc_sender_bytes_sent counter",
		"hrmc_total_sender_bytes_sent " + fmt.Sprint(size),
		"hrmc_session_flows 2",
		// The FEC counters surface by reflection from internal/stats:
		// parity sent / local recoveries / fallback NAKs / wasted parity.
		`hrmc_sender_fec_parity_sent{flow="dist"`,
		`hrmc_receiver_fec_recovered{flow="mirror"`,
		`hrmc_receiver_fec_fallback_naks{flow="mirror"`,
		`hrmc_receiver_fec_parity_wasted{flow="mirror"`,
		// The round-trip gauges: RTTMicros keeps its acronym whole.
		"# TYPE hrmc_receiver_rtt_micros gauge",
		`hrmc_receiver_rtt_micros{flow="mirror"`,
		`hrmc_sender_rtt_micros{flow="dist"`,
		// Time waiting on receivers is a counter, summed in the totals.
		"# TYPE hrmc_sender_release_blocked_micros counter",
		`hrmc_sender_release_blocked_micros{flow="dist"`,
		"hrmc_total_sender_release_blocked_micros",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics output missing %q\n--- got ---\n%s", want, metrics)
		}
	}

	// Forgetting a terminal flow frees it; forgetting twice is a 404.
	p.do(t, "DELETE", fmt.Sprintf("/v1/flows/%d?mode=forget", snd.ID), nil, http.StatusOK, nil)
	p.do(t, "DELETE", fmt.Sprintf("/v1/flows/%d?mode=forget", snd.ID), nil, http.StatusNotFound, nil)
	p.do(t, "GET", "/v1/flows", nil, http.StatusOK, &[]FlowStatus{})
}

// TestControlDrainLossyFlowMidTransfer is the drain-on-close-under-loss
// regression test: three sender/receiver pairs share one lossy hub; the
// slowest sender is drained mid-transfer through the HTTP API, and the
// other two flows must still deliver bit-exact. The drained flow's
// receiver must end with a clean EOF holding exactly the prefix the
// sender shipped before the drain.
func TestControlDrainLossyFlowMidTransfer(t *testing.T) {
	p := newTestPlane(t,
		[]transport.HubOption{transport.WithLoss(0.02, 11), transport.WithDelay(time.Millisecond)},
		session.Config{})
	const size = 192 << 10

	specs := []FlowSpec{
		{Name: "victim-rcv", Group: "gv", Role: RoleRecv},
		// The victim paces slowly with a small send buffer, so its pump
		// is genuinely mid-copy — not just mid-release — when drained.
		{Name: "victim", Group: "gv", Role: RoleSend, Size: size, Receivers: 1,
			Buf: 16 << 10, MinRateBps: 100e3, MaxRateBps: 200e3},
		{Name: "a-rcv", Group: "ga", Role: RoleRecv},
		{Name: "a", Group: "ga", Role: RoleSend, Size: size, Receivers: 1,
			MinRateBps: 400e3, MaxRateBps: 800e3},
		{Name: "b-rcv", Group: "gb", Role: RoleRecv},
		{Name: "b", Group: "gb", Role: RoleSend, Size: size, Receivers: 1,
			MinRateBps: 400e3, MaxRateBps: 800e3},
	}
	AssignPorts(specs)
	ids := make(map[string]int)
	for _, spec := range specs {
		var fs FlowStatus
		p.do(t, "POST", "/v1/flows", spec, http.StatusCreated, &fs)
		ids[spec.Name] = fs.ID
	}

	// Let the victim ship part of its stream, then drain it while the
	// other flows are still running.
	p.waitFlow(t, ids["victim"], "mid-transfer", func(fs FlowStatus) bool {
		return fs.BytesCopied > 16<<10
	})
	var drained FlowStatus
	p.do(t, "DELETE", fmt.Sprintf("/v1/flows/%d", ids["victim"]), nil, http.StatusOK, &drained)
	if drained.State != StateClosed {
		t.Errorf("drained flow state = %s, want %s", drained.State, StateClosed)
	}
	if drained.BytesCopied <= 0 || drained.BytesCopied >= size {
		t.Errorf("drained flow copied %d bytes, want a strict mid-transfer prefix of %d",
			drained.BytesCopied, size)
	}

	// The untouched flows finish bit-exact.
	for _, name := range []string{"a", "b"} {
		p.waitFlow(t, ids[name], "sender done", func(fs FlowStatus) bool { return fs.State == StateDone })
		p.waitFlow(t, ids[name+"-rcv"], "receiver done", func(fs FlowStatus) bool { return fs.State == StateDone })
		if got := p.sinks.get(name + "-rcv").bytes(); !bytes.Equal(got, expectPattern(name, size)) {
			t.Errorf("flow %s: delivered %d bytes, not bit-exact after sibling drain", name, len(got))
		}
	}

	// The victim's receiver sees a clean end of stream carrying exactly
	// the drained prefix.
	p.waitFlow(t, ids["victim-rcv"], "victim receiver done", func(fs FlowStatus) bool {
		return fs.State == StateDone
	})
	got := p.sinks.get("victim-rcv").bytes()
	want := expectPattern("victim", size)[:drained.BytesCopied]
	if !bytes.Equal(got, want) {
		t.Errorf("victim receiver delivered %d bytes, want the %d-byte drained prefix, bit-exact",
			len(got), len(want))
	}
}

// TestControlGovernorTuning exercises live tuning end to end: budget
// changes through PATCH /v1/governor and per-flow weight/ceiling
// changes through PATCH /v1/flows/{id}, observed via the rate/ceiling
// gauges in flow status.
func TestControlGovernorTuning(t *testing.T) {
	p := newTestPlane(t, nil, session.Config{Budget: 1e6})
	const size = 32 << 20 // big enough to outlive the test

	var g GovernorReply
	p.do(t, "GET", "/v1/governor", nil, http.StatusOK, &g)
	if g.BudgetBps != 1e6 {
		t.Fatalf("budget = %v, want 1e6", g.BudgetBps)
	}

	specs := []FlowSpec{
		{Name: "a-rcv", Group: "ga", Role: RoleRecv},
		{Name: "a", Group: "ga", Role: RoleSend, Size: size, Receivers: 1,
			MinRateBps: 100e3, MaxRateBps: 64e6},
		{Name: "b-rcv", Group: "gb", Role: RoleRecv},
		{Name: "b", Group: "gb", Role: RoleSend, Size: size, Receivers: 1,
			MinRateBps: 100e3, MaxRateBps: 64e6},
	}
	AssignPorts(specs)
	ids := make(map[string]int)
	for _, spec := range specs {
		var fs FlowStatus
		p.do(t, "POST", "/v1/flows", spec, http.StatusCreated, &fs)
		ids[spec.Name] = fs.ID
	}
	ceiling := func(fs FlowStatus) int64 {
		if fs.Sender == nil {
			return 0
		}
		return fs.Sender.CeilingBps
	}

	// Both hungry: the governor splits the 1 MB/s budget equally.
	p.waitFlow(t, ids["a"], "equal split", func(fs FlowStatus) bool { return ceiling(fs) == 500e3 })
	p.waitFlow(t, ids["b"], "equal split", func(fs FlowStatus) bool { return ceiling(fs) == 500e3 })

	// Double the budget at runtime.
	budget := 2e6
	p.do(t, "PATCH", "/v1/governor", GovernorPatch{BudgetBps: &budget}, http.StatusOK, &g)
	if g.BudgetBps != 2e6 {
		t.Fatalf("budget after patch = %v, want 2e6", g.BudgetBps)
	}
	p.waitFlow(t, ids["a"], "doubled split", func(fs FlowStatus) bool { return ceiling(fs) == 1e6 })

	// Re-weight flow a to 3: the split becomes 1.5 MB/s / 0.5 MB/s.
	var fs FlowStatus
	p.do(t, "PATCH", fmt.Sprintf("/v1/flows/%d", ids["a"]), FlowPatch{Weight: 3}, http.StatusOK, &fs)
	if fs.Weight != 3 {
		t.Errorf("patched weight = %v, want 3", fs.Weight)
	}
	p.waitFlow(t, ids["a"], "3:1 split", func(fs FlowStatus) bool { return ceiling(fs) == 1.5e6 })
	p.waitFlow(t, ids["b"], "3:1 split", func(fs FlowStatus) bool { return ceiling(fs) == 500e3 })

	// Cap flow b below its governor share; the slack goes to a.
	p.do(t, "PATCH", fmt.Sprintf("/v1/flows/%d", ids["b"]), FlowPatch{CeilingBps: 200e3}, http.StatusOK, &fs)
	p.waitFlow(t, ids["b"], "capped", func(fs FlowStatus) bool {
		return ceiling(fs) > 0 && ceiling(fs) <= 200e3
	})
	p.waitFlow(t, ids["a"], "cap slack donated", func(fs FlowStatus) bool { return ceiling(fs) == 1.8e6 })
}

// TestControlAPIErrors covers the HTTP error mapping.
func TestControlAPIErrors(t *testing.T) {
	p := newTestPlane(t, nil, session.Config{})

	p.do(t, "GET", "/v1/flows/99", nil, http.StatusNotFound, nil)
	p.do(t, "DELETE", "/v1/flows/99", nil, http.StatusNotFound, nil)
	p.do(t, "DELETE", "/v1/flows/notanid", nil, http.StatusBadRequest, nil)
	p.do(t, "POST", "/v1/flows", FlowSpec{Name: "x", Role: "sideways"}, http.StatusBadRequest, nil)
	p.do(t, "PATCH", "/v1/governor", map[string]any{}, http.StatusBadRequest, nil)

	// A running flow cannot be forgotten; a receiver cannot be tuned.
	var rcv FlowStatus
	p.do(t, "POST", "/v1/flows", FlowSpec{
		Name: "r", Group: "g", Role: RoleRecv, LocalPort: 2, PeerPort: 1,
	}, http.StatusCreated, &rcv)
	p.do(t, "DELETE", fmt.Sprintf("/v1/flows/%d?mode=forget", rcv.ID), nil, http.StatusConflict, nil)
	p.do(t, "PATCH", fmt.Sprintf("/v1/flows/%d", rcv.ID), FlowPatch{Weight: 2}, http.StatusBadRequest, nil)

	// Duplicate port binding on the same transport cannot happen with
	// per-flow endpoints, but an unknown shutdown hook is a 501.
	p.do(t, "POST", "/v1/shutdown", nil, http.StatusNotImplemented, nil)
}

// Unnamed flows get names no listed flow already has: not after a Forget
// shrinks the listing, and not when admissions race.
func TestControlDefaultNamesUnique(t *testing.T) {
	p := newTestPlane(t, nil, session.Config{})
	admit := func() FlowStatus {
		t.Helper()
		fs, err := p.mgr.Admit(FlowSpec{Group: "g", Role: RoleRecv})
		if err != nil {
			t.Fatal(err)
		}
		return fs
	}
	unique := func(when string) {
		t.Helper()
		seen := map[string]bool{}
		for _, fs := range p.mgr.List() {
			if seen[fs.Name] {
				t.Errorf("%s: two flows named %q", when, fs.Name)
			}
			seen[fs.Name] = true
		}
	}
	first := admit()
	admit()
	if err := p.mgr.Abort(first.ID); err != nil {
		t.Fatal(err)
	}
	p.waitFlow(t, first.ID, "aborted", func(fs FlowStatus) bool { return fs.State == StateClosed })
	if err := p.mgr.Forget(first.ID); err != nil {
		t.Fatal(err)
	}
	admit()
	unique("after a Forget")

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.mgr.Admit(FlowSpec{Group: "g", Role: RoleRecv}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	unique("after concurrent admissions")
}

// TestControlShutdownDrainsAll checks Manager.Shutdown: every flow is
// drained, admissions are rejected afterwards, and Wait returns.
func TestControlShutdownDrainsAll(t *testing.T) {
	p := newTestPlane(t, nil, session.Config{})
	const size = 8 << 20

	specs := []FlowSpec{
		{Name: "r", Group: "g", Role: RoleRecv},
		{Name: "s", Group: "g", Role: RoleSend, Size: size, Receivers: 1,
			MinRateBps: 200e3, MaxRateBps: 400e3},
	}
	AssignPorts(specs)
	for _, spec := range specs {
		p.do(t, "POST", "/v1/flows", spec, http.StatusCreated, nil)
	}
	p.waitFlow(t, 1, "transfer started", func(fs FlowStatus) bool { return fs.BytesCopied > 0 })

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := p.mgr.Shutdown(ctx); err != nil {
		t.Errorf("Shutdown: %v", err)
	}
	if _, err := p.mgr.Admit(FlowSpec{Name: "late", Group: "g", Role: RoleRecv}); err != ErrManagerClosed {
		t.Errorf("Admit after shutdown = %v, want ErrManagerClosed", err)
	}
	for _, fs := range p.mgr.List() {
		if fs.State != StateClosed && fs.State != StateDone {
			t.Errorf("flow %s state after shutdown = %s, want closed or done", fs.Name, fs.State)
		}
	}
}

// TestControlRetentionEvictsTerminalFlows checks the metrics
// cardinality cap: with Retention set, flows that finished stay listed
// for the window and are then swept — detached from the session like
// Forget — while flows still running are untouched.
func TestControlRetentionEvictsTerminalFlows(t *testing.T) {
	hub := transport.NewHub()
	sess := session.New(session.Config{})
	sinks := newMemSinks()
	mgr := NewManager(ManagerConfig{
		Session: sess,
		Dialer: DialerFunc(func(FlowSpec) (Link, error) {
			return Link{Transport: hub.Endpoint()}, nil
		}),
		OpenSource: seededSource(nameSeed),
		OpenSink:   sinks.open,
		Retention:  30 * time.Millisecond,
	})
	t.Cleanup(sess.Abort)

	const size = 8 << 10
	if _, err := mgr.Admit(FlowSpec{Name: "mirror", Group: "g1", Role: RoleRecv, LocalPort: 2, PeerPort: 1}); err != nil {
		t.Fatal(err)
	}
	snd, err := mgr.Admit(FlowSpec{Name: "dist", Group: "g1", Role: RoleSend,
		Size: size, Receivers: 1, LocalPort: 1, PeerPort: 2})
	if err != nil {
		t.Fatal(err)
	}
	// An idle receiver on its own ports never terminates; retention must
	// leave it alone.
	idle, err := mgr.Admit(FlowSpec{Name: "idle", Group: "g2", Role: RoleRecv, LocalPort: 4, PeerPort: 3})
	if err != nil {
		t.Fatal(err)
	}

	waitList := func(what string, cond func([]FlowStatus) bool) []FlowStatus {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		var fss []FlowStatus
		for time.Now().Before(deadline) {
			fss = mgr.List()
			if cond(fss) {
				return fss
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("timeout waiting for %s (last: %+v)", what, fss)
		return nil
	}

	// Each List sweeps, so the transfer pair is retired within one
	// retention window of finishing; completion itself is asserted from
	// the delivered bytes below.
	fss := waitList("terminal flows to be retired", func(fss []FlowStatus) bool { return len(fss) == 1 })
	if got := sinks.get("mirror").bytes(); !bytes.Equal(got, expectPattern("dist", size)) {
		t.Errorf("delivered %d bytes, not bit-exact with the %d-byte source", len(got), size)
	}
	if fss[0].ID != idle.ID || fss[0].State != StateRunning {
		t.Fatalf("surviving flow = %+v, want the running idle receiver", fss[0])
	}
	if err := mgr.Forget(snd.ID); !errors.Is(err, ErrUnknownFlow) {
		t.Errorf("Forget after retention sweep = %v, want ErrUnknownFlow", err)
	}
	if n := len(sess.Snapshot().Flows); n != 1 {
		t.Errorf("session still hosts %d flows after sweep, want 1", n)
	}
}

// failAfter is a sink that takes n bytes and fails every Write after.
type failAfter struct{ n int }

var errSinkFull = errors.New("sink full")

func (w *failAfter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		k := w.n
		w.n = 0
		return k, errSinkFull
	}
	w.n -= len(p)
	return len(p), nil
}

func (w *failAfter) Close() error { return nil }

// A receiver whose sink fails leaves the group, so its sender releases
// past it: a 4 MiB flow, eight windows long, into a sink that fails
// after 4 KiB ends with the receiver failed on the sink's error and the
// sender done, and Manager.Wait returns. A receiver left joined and
// unread would hold the sender's window, and Wait, for good.
func TestControlFailedSinkLeavesGroup(t *testing.T) {
	hub := transport.NewHub()
	sess := session.New(session.Config{})
	defer sess.Abort()
	m := NewManager(ManagerConfig{
		Session: sess,
		Dialer: DialerFunc(func(FlowSpec) (Link, error) {
			return Link{Transport: hub.Endpoint()}, nil
		}),
		OpenSink: func(FlowSpec) (io.WriteCloser, error) { return &failAfter{n: 4 << 10}, nil },
	})
	specs := []FlowSpec{
		{Name: "rcv", Group: "g", Role: RoleRecv},
		{Name: "snd", Group: "g", Role: RoleSend, Size: 4 << 20, Receivers: 1,
			MinRateBps: 1e6, MaxRateBps: 64e6},
	}
	AssignPorts(specs)
	var ids []int
	for _, spec := range specs {
		fs, err := m.Admit(spec)
		if err != nil {
			t.Fatalf("admit %s: %v", spec.Name, err)
		}
		ids = append(ids, fs.ID)
	}
	waited := make(chan struct{})
	go func() {
		m.Wait()
		close(waited)
	}()
	select {
	case <-waited:
	case <-time.After(30 * time.Second):
		rcv, _ := m.Status(ids[0])
		snd, _ := m.Status(ids[1])
		t.Fatalf("Manager.Wait still blocked after 30 s: receiver %s, %d bytes copied; sender %s, %d bytes copied",
			rcv.State, rcv.BytesCopied, snd.State, snd.BytesCopied)
	}
	rcv, _ := m.Status(ids[0])
	snd, _ := m.Status(ids[1])
	if rcv.State != StateFailed || !strings.Contains(rcv.Error, errSinkFull.Error()) {
		t.Errorf("receiver ended %s (%q), want %s on the sink's error", rcv.State, rcv.Error, StateFailed)
	}
	if snd.State != StateDone || snd.BytesCopied != 4<<20 {
		t.Errorf("sender ended %s with %d bytes copied, want %s with all %d", snd.State, snd.BytesCopied, StateDone, 4<<20)
	}
}
