package sender

import (
	"repro/internal/packet"
	"repro/internal/seqspace"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The probe extensions of Section 7: early probes (Config.EarlyProbeRTTs)
// move the PROBE for the window front ahead of its release deadline so
// the answer arrives by the time the deadline hits; multicast probes
// (Config.MulticastProbeThreshold) replace many unicast PROBEs with one.

// probeLead is how long before the release deadline lacking members are
// probed; zero without early probes.
func (s *Sender) probeLead() sim.Time {
	if s.cfg.EarlyProbeRTTs <= 0 {
		return 0
	}
	return sim.Time(s.cfg.EarlyProbeRTTs * float64(s.pacingRTT()))
}

// probeGroup sends one multicast PROBE for seq in place of the unicasts
// to n due members when there are enough of them, and reports whether it
// did.
func (s *Sender) probeGroup(now sim.Time, seq seqspace.Seq, n int) bool {
	if s.cfg.MulticastProbeThreshold <= 0 || n < s.cfg.MulticastProbeThreshold {
		return false
	}
	s.st.MulticastProbesSent++
	trace.Emit(s.cfg.Trace, now, trace.ProbeSent, uint32(seq), int64(n))
	s.signal(packet.Header{Type: packet.TypeProbe, Seq: uint32(seq)}, Dest{Multicast: true})
	return true
}
