package netsim

import "repro/internal/packet"

// OnNew installs (or, with nil, removes) the hook that sees every
// Network New creates.
func OnNew(f func(*Network)) { newHook = f }

// Seams reaches a Network's or a Hierarchy's test hooks: wakeDriven makes
// the driver run its machines only when their NextWake is due, emitted
// taps every packet a machine emits.
func (s *seams) Seams(wakeDriven bool, emitted func(from packet.NodeID, p *packet.Packet, multicast bool, to packet.NodeID)) {
	s.wakeDriven, s.emitted = wakeDriven, emitted
}
