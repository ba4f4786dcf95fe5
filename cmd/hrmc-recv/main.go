// Command hrmc-recv joins an H-RMC multicast group and writes the
// reliably delivered stream to a file or stdout, as one flow of a
// control.Manager. See hrmc-send for a same-host demo.
package main

import (
	"flag"
	"io"
	"log"
	"net"
	"os"
	"time"

	"repro/internal/control"
	"repro/internal/session"
	"repro/internal/udpmcast"
)

func main() {
	var (
		group  = flag.String("group", "239.66.66.66:9999", "multicast group address")
		out    = flag.String("out", "-", "output file (- for stdout)")
		rcvbuf = flag.Int("rcvbuf", 512<<10, "receive buffer (kernel-buffer analogue) in bytes")
		iface  = flag.String("iface", "", "interface to join on (default: loopback if present, else system default)")
		fecK   = flag.Int("fec", 0, "FEC parity group size K (0 disables; must match the sender's -fec)")
	)
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("hrmc-recv: ")

	ifi, _ := net.InterfaceByName("lo")
	if *iface != "" {
		var err error
		if ifi, err = net.InterfaceByName(*iface); err != nil {
			log.Fatal(err)
		}
	}

	tr, err := udpmcast.NewReceiverTransport(*group, ifi)
	if err != nil {
		log.Fatal(err)
	}

	cfg := control.ManagerConfig{
		Session: session.New(session.Config{}),
		Dialer: control.DialerFunc(func(control.FlowSpec) (control.Link, error) {
			return control.Link{Transport: tr}, nil
		}),
	}
	spec := control.FlowSpec{Group: *group, Role: control.RoleRecv, File: *out, Buf: *rcvbuf, Fec: *fecK}
	if *out == "-" {
		cfg.OpenSink = func(control.FlowSpec) (io.WriteCloser, error) { return os.Stdout, nil }
	}
	mgr := control.NewManager(cfg)
	fs, err := mgr.Admit(spec)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("joined %s, waiting for data", *group)
	start := time.Now()
	mgr.Wait()
	el := time.Since(start)
	fs, _ = mgr.Status(fs.ID)
	_ = cfg.Session.Close() // ships the final UPDATE+LEAVE and closes the transport
	if fs.State != control.StateDone {
		log.Fatalf("flow %s: %s", fs.State, fs.Error)
	}
	n, st := fs.BytesCopied, fs.Receiver
	log.Printf("received %d bytes in %v (%.2f Mbps)",
		n, el.Round(time.Millisecond), float64(n)*8/el.Seconds()/1e6)
	log.Printf("%d data pkts, %d dups, %d naks sent, %d updates sent, %d probes answered",
		st.DataReceived, st.Duplicates, st.NaksSent, st.UpdatesSent, st.ProbesReceived)
}
