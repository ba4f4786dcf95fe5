// Command hrmc-recv joins an H-RMC multicast group and writes the
// reliably delivered stream to a file or stdout. See hrmc-send for a
// same-host demo.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"time"

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

	var ifi *net.Interface
	if *iface != "" {
		var err error
		ifi, err = net.InterfaceByName(*iface)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hrmc-recv: %v\n", err)
			os.Exit(1)
		}
	} else if lo, err := net.InterfaceByName("lo"); err == nil {
		ifi = lo
	}

	tr, err := udpmcast.NewReceiverTransport(*group, ifi)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hrmc-recv: %v\n", err)
		os.Exit(1)
	}

	var dst io.Writer = os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hrmc-recv: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		dst = f
	}

	// All flow knobs funnel through the canonical session.FlowSpec, the
	// same translation the daemon's control plane admits flows with.
	spec := session.FlowSpec{Kind: session.KindReceiver, Buf: *rcvbuf}
	if *fecK > 0 {
		spec.Fec = session.FecConfig{Enabled: true, K: *fecK}
	}
	sess := session.New(session.Config{})
	rcv, err := sess.OpenReceiverFlow(tr, spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hrmc-recv: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "hrmc-recv: joined %s, waiting for data\n", *group)
	start := time.Now()
	n, err := io.Copy(dst, rcv)
	_ = sess.Close() // ships the final UPDATE+LEAVE and closes the transport
	if err != nil {
		fmt.Fprintf(os.Stderr, "hrmc-recv: %v\n", err)
		os.Exit(1)
	}
	el := time.Since(start)
	st := rcv.Stats()
	fmt.Fprintf(os.Stderr, "hrmc-recv: received %d bytes in %v (%.2f Mbps)\n",
		n, el.Round(time.Millisecond), float64(n)*8/el.Seconds()/1e6)
	fmt.Fprintf(os.Stderr, "hrmc-recv: %d data pkts, %d dups, %d naks sent, %d updates sent, %d probes answered\n",
		st.DataReceived, st.Duplicates, st.NaksSent, st.UpdatesSent, st.ProbesReceived)
}
