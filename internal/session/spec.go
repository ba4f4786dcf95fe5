// FlowSpec: the one canonical translation from a declarative flow
// description to the machine config and the flow it opens.
// Every front end — internal/control's admission API (which the hrmcd
// daemon's config file and the hrmc-send/hrmc-recv CLIs go through),
// internal/hrmcsock's sockets and the examples — builds a FlowSpec and
// opens it through OpenSenderFlow/OpenReceiverFlow, so a knob added
// here reaches every entry point at once.
package session

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/rate"
	"repro/internal/receiver"
	"repro/internal/repair"
	"repro/internal/sender"
	"repro/internal/transport"
)

// FlowSpec is the transport-independent description of one flow.
type FlowSpec struct {
	// Kind is the flow direction.
	Kind Kind
	// Label names the flow in snapshots and logs.
	Label string
	// LocalPort and PeerPort are the H-RMC header ports (the session's
	// demux key); both zero binds the transport's wildcard slot.
	LocalPort, PeerPort uint16
	// Buf is the kernel-buffer analogue in bytes (send window for
	// senders, receive window for receivers). Zero keeps the machine
	// default.
	Buf int
	// Receivers is how many receivers must join before a sender
	// releases buffered data (senders only).
	Receivers int
	// Weight is the flow's fair share under a session budget (senders;
	// zero means the default weight 1).
	Weight float64
	// MinRateBps/MaxRateBps override the flow-control floor and ceiling
	// in bytes/second (senders; zero keeps the defaults).
	MinRateBps, MaxRateBps float64
	// Fec configures per-flow forward error correction; both ends of a
	// group must agree.
	Fec FecConfig
	// Head makes a receiver a repair head for its group (hierarchical
	// recovery).
	Head bool
	// HeadAddr attaches a receiver as a downstream leaf of the repair
	// head with that node address; zero keeps flat feedback. Ignored
	// when Head is set.
	HeadAddr packet.NodeID
	// ReadoptHead lets a failed-over leaf re-attach when its configured
	// head's traffic reappears.
	ReadoptHead bool
	// JoinInProgress admits a receiver to a stream already flowing.
	JoinInProgress bool
	// Group is the flow's multicast group on a shared GroupTransport;
	// zero for single-group transports.
	Group transport.GroupID
}

// senderConfig builds the sender machine configuration the spec
// describes; openSender adds FEC.
func (sp FlowSpec) senderConfig() sender.Config {
	cfg := sender.Config{
		LocalPort:         sp.LocalPort,
		RemotePort:        sp.PeerPort,
		SndBuf:            sp.Buf,
		ExpectedReceivers: sp.Receivers,
	}
	if sp.MinRateBps > 0 || sp.MaxRateBps > 0 {
		rc := rate.DefaultConfig()
		if sp.MinRateBps > 0 {
			rc.MinRate = sp.MinRateBps
		}
		if sp.MaxRateBps > 0 {
			rc.MaxRate = sp.MaxRateBps
		}
		cfg.Rate = rc
	}
	return cfg
}

// receiverConfig builds the receiver machine configuration the spec
// describes; openReceiver adds FEC.
func (sp FlowSpec) receiverConfig() receiver.Config {
	cfg := receiver.Config{
		LocalPort:      sp.LocalPort,
		RemotePort:     sp.PeerPort,
		RcvBuf:         sp.Buf,
		JoinInProgress: sp.JoinInProgress,
	}
	if sp.Head {
		cfg.Head = &repair.Config{}
	} else if sp.HeadAddr != 0 {
		cfg.RepairHead = sp.HeadAddr
		cfg.ReadoptHead = sp.ReadoptHead
	}
	return cfg
}

// rawSpec is the FlowSpec of a flow opened from a raw machine config:
// its kind, its port and whatever opts set.
func rawSpec(kind Kind, port uint16, opts []FlowOption) FlowSpec {
	sp := FlowSpec{Kind: kind, LocalPort: port}
	for _, o := range opts {
		o(&sp)
	}
	return sp
}

// OpenSenderFlow opens the sending flow sp describes over tr.
func (s *Session) OpenSenderFlow(tr transport.Transport, sp FlowSpec) (*SenderFlow, error) {
	if sp.Kind != KindSender {
		return nil, fmt.Errorf("session: OpenSenderFlow on a %v spec", sp.Kind)
	}
	return s.openSender(tr, sp.senderConfig(), sp)
}

// OpenReceiverFlow opens the receiving flow sp describes over tr.
func (s *Session) OpenReceiverFlow(tr transport.Transport, sp FlowSpec) (*ReceiverFlow, error) {
	if sp.Kind != KindReceiver {
		return nil, fmt.Errorf("session: OpenReceiverFlow on a %v spec", sp.Kind)
	}
	return s.openReceiver(tr, sp.receiverConfig(), sp)
}
