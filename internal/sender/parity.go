package sender

import (
	"repro/internal/fec"
	"repro/internal/packet"
	"repro/internal/seqspace"
	"repro/internal/sim"
	"repro/internal/trace"
)

// parity is the forward-error-correction pipeline (Config.FECGroupSize):
// every first transmission feeds the encoder, and each full group's XOR
// parity is multicast inline. Parity is best-effort — never windowed,
// never retransmitted, not charged to the rate allowance, a bounded 1/K
// overhead. lastAdd is the last time a first transmission fed the
// encoder; when the pipeline then sits idle with a group half-open, Tick
// flushes the partial group's parity so the sent prefix doesn't remain
// unprotected across a stall (see Encoder.Flush). enc is nil when FEC is
// off.
type parity struct {
	enc     *fec.Encoder
	lastAdd sim.Time
}

// protect feeds one first transmission to the encoder.
func (s *Sender) protect(now sim.Time, p *packet.Packet) {
	if s.fec.enc == nil {
		return
	}
	s.emitParity(now, s.fec.enc.Add(seqspace.Seq(p.Seq), p.Flags, p.Payload))
	s.fec.lastAdd = now
	s.st.FecGroupRestarts = s.fec.enc.Restarts()
}

// flushParity closes a parity group left half-open across a pipeline
// pause (window stall, rate gate, stream tail), which would otherwise
// leave its sent prefix unprotected past the receivers' NAK-defer window,
// with a short-group parity. One beat of silence is the signal — the next
// burst is due within a beat, so this only fires when transmission
// genuinely paused.
func (s *Sender) flushParity(now sim.Time) {
	if at, due := s.flushDue(); due && now >= at {
		s.emitParity(now, s.fec.enc.Flush())
	}
}

// flushDue is when an open parity group is flushed.
func (s *Sender) flushDue() (sim.Time, bool) {
	if s.fec.enc == nil || s.fec.enc.Pending() == 0 {
		return 0, false
	}
	return s.fec.lastAdd + s.rc.Beat(), true
}

func (s *Sender) emitParity(now sim.Time, p *packet.Packet) {
	if p == nil {
		return
	}
	s.st.FecParitySent++
	trace.Emit(s.cfg.Trace, now, trace.FecParitySent, p.Seq, int64(p.Length))
	s.emit(Out{Pkt: p, Dest: Dest{Multicast: true}})
}
