// Command hrmcd is the multi-group H-RMC daemon: one process serving
// many concurrent reliable-multicast transfers — senders and receivers
// across independent groups — over a single internal/session driver
// (one deadline-driven driver, one receive loop per UDP socket, an optional
// aggregate bandwidth budget shared fairly among the sending flows).
//
// Flows are admitted through the internal/control plane. The JSON
// config file is only the initial state; with -listen (or "listen" in
// the config) the same control plane is served over HTTP, and flows
// can be admitted, observed, tuned, drained, and closed at runtime:
//
//	hrmcd -example > hrmcd.json
//	hrmcd -config hrmcd.json -listen 127.0.0.1:8383
//	curl http://127.0.0.1:8383/v1/status
//	curl -X POST http://127.0.0.1:8383/v1/flows -d \
//	  '{"name":"dist-c","group":"239.66.66.68:11999","role":"send","size":1048576,"receivers":1}'
//	curl -X DELETE 'http://127.0.0.1:8383/v1/flows/3?mode=drain'
//	curl -X POST http://127.0.0.1:8383/v1/shutdown
//
// -listen also accepts unix sockets as "unix:/path/to.sock".
//
// Without a listener the daemon exits once every configured transfer
// completes, as before. With one it keeps serving until a shutdown is
// requested (SIGINT/SIGTERM or POST /v1/shutdown), then drains every
// flow and exits; a second signal aborts immediately.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/control"
	"repro/internal/session"
	"repro/internal/transport"
	"repro/internal/udpmcast"
)

// Config is the daemon's JSON configuration — the initial control-plane
// state.
type Config struct {
	// BudgetMbps, when positive, caps the aggregate send rate of all
	// sending groups, in megabits/second; the demand-aware fair-share
	// governor splits it by weight. PATCH /v1/governor adjusts it at
	// runtime.
	BudgetMbps float64 `json:"budget_mbps"`
	// StatsEverySec prints a session snapshot line at this period
	// (default 5; 0 disables).
	StatsEverySec int `json:"stats_every_sec"`
	// Loopback pins multicast egress to 127.0.0.1 for same-host demos.
	Loopback bool `json:"loopback"`
	// Listen, when set, serves the control-plane HTTP API on this
	// address ("host:port" or "unix:/path"); the -listen flag
	// overrides it.
	Listen string `json:"listen,omitempty"`
	// Shards, when positive, switches the daemon to the shared-socket
	// group transport: that many socket pairs (and receive-poller pairs)
	// host every admitted group, chosen per group by hash, so serving
	// 1,000 groups costs O(shards) fds and goroutines instead of
	// O(groups). The session's one send poller serves every shard.
	// Requires DataPort; 0 keeps the classic one-socket-per-flow dialer.
	Shards int `json:"shards,omitempty"`
	// DataPort is the UDP data port shared by every group in sharded
	// mode. Group addresses must be bare IPs or ip:DataPort.
	DataPort int `json:"data_port,omitempty"`
	// Groups lists the flows admitted at startup. In classic
	// (non-sharded) mode each distinct group needs its own UDP port:
	// Linux delivers multicast for same-port sockets in one SO_REUSEPORT
	// group to a single hash-chosen socket, which strands the other
	// groups. In sharded mode all groups share DataPort and are told
	// apart by group address.
	Groups []control.FlowSpec `json:"groups"`
}

const exampleConfig = `{
  "budget_mbps": 50,
  "stats_every_sec": 5,
  "loopback": true,
  "listen": "127.0.0.1:8383",
  "groups": [
    {"name": "dist-a", "group": "239.66.66.66:9999", "role": "send",
     "file": "/etc/hostname", "receivers": 1, "weight": 2},
    {"name": "dist-b", "group": "239.66.66.67:10999", "role": "send",
     "size": 1048576, "receivers": 1, "fec": 8},
    {"name": "mirror-b", "group": "239.66.66.67:10999", "role": "recv",
     "file": "/tmp/mirror-b.out", "fec": 8}
  ]
}
`

func main() {
	var (
		cfgPath   = flag.String("config", "", "JSON config file (see -example)")
		listen    = flag.String("listen", "", `control API address ("host:port" or "unix:/path"); overrides the config`)
		retention = flag.Duration("retention", 0, "evict terminal flows from the control plane this long after they finish, bounding /v1/status and /metrics on long-lived daemons (0 keeps them until an explicit forget)")
		pprofAddr = flag.String("pprof", "", `serve net/http/pprof on this address (e.g. "127.0.0.1:6060") for live datapath profiling`)
		example   = flag.Bool("example", false, "print an example config and exit")
	)
	flag.Parse()
	if *example {
		fmt.Print(exampleConfig)
		return
	}
	if *pprofAddr != "" {
		go func() {
			// DefaultServeMux carries the pprof handlers registered by the
			// net/http/pprof import; the control API runs on its own mux,
			// so nothing else is exposed here.
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "hrmcd: pprof: %v\n", err)
			}
		}()
		fmt.Printf("hrmcd: pprof on http://%s/debug/pprof/\n", *pprofAddr)
	}
	cfg, err := loadConfig(*cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hrmcd: %v\n", err)
		os.Exit(2)
	}
	if *listen != "" {
		cfg.Listen = *listen
	}
	if len(cfg.Groups) == 0 && cfg.Listen == "" {
		fmt.Fprintln(os.Stderr, "hrmcd: nothing to do: no groups configured and no -listen address (try -example)")
		os.Exit(2)
	}
	if err := run(cfg, *retention); err != nil {
		fmt.Fprintf(os.Stderr, "hrmcd: %v\n", err)
		os.Exit(1)
	}
}

func loadConfig(path string) (*Config, error) {
	cfg := &Config{StatsEverySec: 5}
	if path == "" {
		return cfg, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	// An unknown key is an error, as on the control API: a misspelt or
	// retired setting must not be silently ignored.
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(cfg); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	control.AssignPorts(cfg.Groups)
	return cfg, nil
}

// mcastDialer creates one UDP-multicast socket per admitted flow — the
// classic mode, for daemons serving a handful of groups.
type mcastDialer struct {
	loopback bool
}

func (d mcastDialer) Dial(spec control.FlowSpec) (control.Link, error) {
	if spec.Role == control.RoleSend {
		var opts []udpmcast.SenderOption
		if d.loopback {
			opts = append(opts, udpmcast.WithEgressIP(net.IPv4(127, 0, 0, 1)))
		}
		tr, err := udpmcast.NewSenderTransport(spec.Group, opts...)
		if err != nil {
			return control.Link{}, err
		}
		return control.Link{Transport: tr}, nil
	}
	var ifi *net.Interface
	if d.loopback {
		lo, err := net.InterfaceByName("lo")
		if err != nil {
			return control.Link{}, fmt.Errorf("loopback configured but no lo interface: %w", err)
		}
		ifi = lo
	}
	tr, err := udpmcast.NewReceiverTransport(spec.Group, ifi)
	if err != nil {
		return control.Link{}, err
	}
	return control.Link{Transport: tr}, nil
}

// newDialer builds the flow dialer the config asks for: sharded mode
// opens cfg.Shards shared group transports on cfg.DataPort up front
// and admits every flow onto them; classic mode dials one socket per
// flow. The returned closer tears the shard sockets down (idempotent —
// the session also closes transports it hosted flows on).
func newDialer(cfg *Config) (control.Dialer, func(), error) {
	if cfg.Shards <= 0 {
		return mcastDialer{loopback: cfg.Loopback}, func() {}, nil
	}
	if cfg.DataPort <= 0 {
		return nil, nil, fmt.Errorf("sharded mode (shards=%d) requires data_port", cfg.Shards)
	}
	shards := make([]transport.GroupTransport, 0, cfg.Shards)
	closeAll := func() {
		for _, s := range shards {
			s.Close()
		}
	}
	for i := 0; i < cfg.Shards; i++ {
		gt, err := udpmcast.NewGroupTransport(udpmcast.GroupConfig{
			Port:     cfg.DataPort,
			Loopback: cfg.Loopback,
		})
		if err != nil {
			closeAll()
			return nil, nil, fmt.Errorf("shard %d/%d: %w", i, cfg.Shards, err)
		}
		shards = append(shards, gt)
	}
	d, err := control.NewShardedDialer(shards)
	if err != nil {
		closeAll()
		return nil, nil, err
	}
	return d, closeAll, nil
}

func run(cfg *Config, retention time.Duration) error {
	if gso, gro := udpmcast.ProbeOffload(); gso || gro {
		fmt.Printf("hrmcd: UDP offload: gso=%v gro=%v\n", gso, gro)
	}
	dialer, closeShards, err := newDialer(cfg)
	if err != nil {
		return err
	}
	defer closeShards()
	if cfg.Shards > 0 {
		fmt.Printf("hrmcd: sharded transport: %d shard socket pairs on data port %d\n", cfg.Shards, cfg.DataPort)
	}
	sess := session.New(session.Config{Budget: cfg.BudgetMbps * 1e6 / 8})
	mgr := control.NewManager(control.ManagerConfig{
		Session:   sess,
		Dialer:    dialer,
		Retention: retention,
		Logf: func(format string, args ...any) {
			fmt.Printf("hrmcd: "+format+"\n", args...)
		},
	})

	// shutdownCh fires once on the first shutdown request (signal or
	// POST /v1/shutdown); a second signal aborts outright.
	shutdownCh := make(chan struct{}, 1)
	requestShutdown := func() {
		select {
		case shutdownCh <- struct{}{}:
		default:
		}
	}
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "hrmcd: %v — draining (signal again to abort)\n", s)
		requestShutdown()
		s = <-sig
		fmt.Fprintf(os.Stderr, "hrmcd: %v — aborting\n", s)
		sess.Abort()
		os.Exit(1)
	}()

	var httpSrv *http.Server
	if cfg.Listen != "" {
		ln, err := listenControl(cfg.Listen)
		if err != nil {
			sess.Abort()
			return err
		}
		httpSrv = &http.Server{Handler: control.NewServer(mgr, requestShutdown).Handler()}
		go func() {
			if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "hrmcd: control API: %v\n", err)
			}
		}()
		fmt.Printf("hrmcd: control API on %s\n", cfg.Listen)
	}

	// The config file is just the first batch of admissions.
	for _, spec := range cfg.Groups {
		if _, err := mgr.Admit(spec); err != nil {
			sess.Abort()
			return fmt.Errorf("admit %s: %w", spec.Name, err)
		}
	}

	// Without a listener the daemon is a batch job: done when the
	// configured transfers are. With one, it runs until told to stop.
	initialDone := make(chan struct{})
	go func() { mgr.Wait(); close(initialDone) }()

	var ticker *time.Ticker
	if cfg.StatsEverySec > 0 {
		ticker = time.NewTicker(time.Duration(cfg.StatsEverySec) * time.Second)
		defer ticker.Stop()
	}
	start := time.Now()
	for {
		var tick <-chan time.Time
		if ticker != nil {
			tick = ticker.C
		}
		var batchDone <-chan struct{}
		if cfg.Listen == "" {
			batchDone = initialDone
		}
		select {
		case <-tick:
			printSnapshot(os.Stdout, start, sess.Snapshot())
		case <-batchDone:
			return finish(cfg, sess, mgr, httpSrv, start)
		case <-shutdownCh:
			fmt.Println("hrmcd: shutdown requested — draining flows")
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			err := mgr.Shutdown(ctx)
			cancel()
			if ferr := finish(cfg, sess, mgr, httpSrv, start); err == nil {
				err = ferr
			}
			return err
		}
	}
}

// finish prints the last snapshot, reports failed flows, and closes the
// control listener and the session.
func finish(cfg *Config, sess *session.Session, mgr *control.Manager, httpSrv *http.Server, start time.Time) error {
	printSnapshot(os.Stdout, start, sess.Snapshot())
	var firstErr error
	for _, fs := range mgr.List() {
		if fs.State == control.StateFailed {
			err := fmt.Errorf("%s: %s", fs.Name, fs.Error)
			if firstErr == nil {
				firstErr = err
				continue
			}
			fmt.Fprintf(os.Stderr, "hrmcd: %v\n", err)
		}
	}
	if httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_ = httpSrv.Shutdown(ctx)
		cancel()
	}
	if err := sess.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// listenControl opens the control API listener: "unix:/path" or a TCP
// host:port.
func listenControl(addr string) (net.Listener, error) {
	if path, ok := strings.CutPrefix(addr, "unix:"); ok {
		_ = os.Remove(path)
		return net.Listen("unix", path)
	}
	return net.Listen("tcp", addr)
}

// printSnapshot renders one status line per flow plus the aggregate.
func printSnapshot(w io.Writer, start time.Time, snap session.Snapshot) {
	el := time.Since(start).Round(time.Second)
	for _, f := range snap.Flows {
		switch {
		case f.Sender != nil:
			fmt.Fprintf(w, "hrmcd: [%v] %s (%s :%d) sent=%dB retrans=%d naks=%d rate=%dB/s ceil=%dB/s done=%v\n",
				el, f.Label, f.Kind, f.Port,
				f.Sender.BytesSent, f.Sender.Retransmissions, f.Sender.NaksReceived,
				f.Sender.RateBps, f.Sender.CeilingBps, f.Done)
		case f.Receiver != nil:
			fmt.Fprintf(w, "hrmcd: [%v] %s (%s :%d) delivered=%dB naks=%d updates=%d done=%v\n",
				el, f.Label, f.Kind, f.Port,
				f.Receiver.BytesDelivered, f.Receiver.NaksSent, f.Receiver.UpdatesSent, f.Done)
		}
	}
	t := snap.Total
	fmt.Fprintf(w, "hrmcd: [%v] total %d senders %d receivers sent=%dB retrans=%d delivered=%dB rate=%dB/s\n",
		el, t.SenderFlows, t.ReceiverFlows,
		t.Sender.BytesSent, t.Sender.Retransmissions, t.Receiver.BytesDelivered, t.Sender.RateBps)
}
