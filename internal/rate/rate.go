// Package rate implements the rate-based half of RMC/H-RMC flow control
// (Section 2, "Flow Control"): a current transmission rate advertised in
// every outgoing packet, grown with slow-start and congestion-avoidance
// phases like TCP [Jacobson & Karels, SIGCOMM '88], halved on NAKs and
// warning rate requests, and stopped entirely for two round trips by an
// urgent rate request, after which transmission restarts from the minimum
// rate in slow start.
//
// The controller doubles as the transmitter's token bucket: the transmit
// timer asks for an allowance and spends it as packets go out, and a
// deadline-driven driver asks when the bucket will fund the next burst.
package rate

import (
	"math"

	"repro/internal/kernel"
	"repro/internal/sim"
)

// Phase is the congestion-control phase.
type Phase int

const (
	// SlowStart doubles the rate every round trip.
	SlowStart Phase = iota
	// CongestionAvoidance increases the rate linearly.
	CongestionAvoidance
	// Stopped halts forward transmission (urgent rate request); the
	// controller leaves Stopped by itself when the stop deadline passes.
	Stopped
)

func (p Phase) String() string {
	switch p {
	case SlowStart:
		return "slow-start"
	case CongestionAvoidance:
		return "congestion-avoidance"
	case Stopped:
		return "stopped"
	}
	return "unknown"
}

// Config parametrizes the controller.
type Config struct {
	// MinRate is the slow-start floor in bytes/second.
	MinRate float64
	// MaxRate caps the transmission rate in bytes/second (for example
	// the line rate).
	MaxRate float64
	// MSS is the segment payload size, used for the linear increase.
	MSS int
	// Quantum is the finest interval the driver can wake the transmitter
	// at. Zero means kernel.Jiffy, the paper's per-jiffy transmit timer
	// (and the simulator's clock); a live driver that sleeps to exact
	// deadlines stamps its own. The bucket's depth and the pacing beat
	// follow it (see Beat).
	Quantum sim.Time
}

// DefaultConfig mirrors the kernel implementation: the minimum rate is
// one segment per jiffy — the paper's per-jiffy transmitter cannot pace
// slower without skipping ticks — and the ceiling is 1 Gb/s (effectively
// uncapped; the network limits throughput).
func DefaultConfig() Config {
	return Config{MinRate: 140e3, MaxRate: 125e6, MSS: 1400}
}

func (c *Config) sanitize() {
	if c.MSS <= 0 {
		c.MSS = 1400
	}
	if c.MinRate <= 0 {
		c.MinRate = 16 << 10
	}
	if c.MaxRate < c.MinRate {
		c.MaxRate = c.MinRate
	}
	if c.Quantum <= 0 || c.Quantum > kernel.Jiffy {
		c.Quantum = kernel.Jiffy
	}
}

// Controller is the sender's rate state. Create with New.
type Controller struct {
	cfg      Config
	rate     float64 // current transmission rate, bytes/second
	ssthresh float64
	phase    Phase
	stopped  sim.Time // when Stopped ends

	lastGrow sim.Time // last growth step
	lastCut  sim.Time // last halving, to bound cuts to one per RTT

	// Token bucket.
	tokens     float64
	lastRefill sim.Time
	refillInit bool
}

// New returns a controller at the minimum rate in slow start, as at the
// beginning of data transmission for a new connection.
func New(cfg Config) *Controller {
	cfg.sanitize()
	return &Controller{
		cfg:      cfg,
		rate:     cfg.MinRate,
		ssthresh: cfg.MaxRate,
		phase:    SlowStart,
	}
}

// Rate returns the current transmission rate in bytes/second; it is zero
// while stopped by an urgent request.
func (c *Controller) Rate(now sim.Time) float64 {
	c.maybeResume(now)
	if c.phase == Stopped {
		return 0
	}
	return c.rate
}

// Advertised returns the rate advertisement for outgoing packet headers.
// The advertisement reflects the configured rate even while transmission
// is urgently stopped, since the receivers use it for their WARNBUF rule
// once transmission resumes.
func (c *Controller) Advertised() uint32 {
	if c.rate >= float64(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(c.rate)
}

// Phase returns the current phase, resolving an expired stop.
func (c *Controller) Phase(now sim.Time) Phase {
	c.maybeResume(now)
	return c.phase
}

func (c *Controller) maybeResume(now sim.Time) {
	if c.phase == Stopped && now >= c.stopped {
		// Restart from the minimum rate with slow start, per the paper:
		// "any time following an urgent rate request, the sender sets the
		// transmission rate to a minimum value and uses slow start".
		c.phase = SlowStart
		c.rate = c.cfg.MinRate
		c.lastGrow = now
	}
}

// Ceiling returns the current MaxRate ceiling in bytes/second.
func (c *Controller) Ceiling() float64 { return c.cfg.MaxRate }

// MinRate returns the configured rate floor in bytes/second.
func (c *Controller) MinRate() float64 { return c.cfg.MinRate }

// SetCeiling re-points the MaxRate ceiling at runtime; a session's
// fair-share governor uses it to apportion one line rate among many
// concurrent flows. The ceiling is floored at MinRate (the
// one-packet-per-jiffy pacing floor), and the current rate and ssthresh
// are clamped down immediately so an over-budget flow backs off within
// a tick rather than a round trip.
func (c *Controller) SetCeiling(max float64) {
	if max < c.cfg.MinRate {
		max = c.cfg.MinRate
	}
	c.cfg.MaxRate = max
	if c.ssthresh > max {
		c.ssthresh = max
	}
	if c.rate > max {
		c.rate = max
	}
}

// MaybeGrow applies at most one growth step per round trip: doubling in
// slow start until ssthresh, then a linear MSS-per-RTT increase. The
// transmitter calls this from the ticks that send data; growth during
// idle periods is suppressed by that discipline.
func (c *Controller) MaybeGrow(now sim.Time, rtt sim.Time) {
	c.maybeResume(now)
	if c.phase == Stopped {
		return
	}
	if rtt <= 0 {
		rtt = sim.Millisecond
	}
	if now-c.lastGrow < rtt {
		return
	}
	c.lastGrow = now
	switch c.phase {
	case SlowStart:
		c.rate *= 2
		if c.rate >= c.ssthresh {
			c.rate = c.ssthresh
			c.phase = CongestionAvoidance
		}
	case CongestionAvoidance:
		// One MSS per RTT, expressed as a rate increment.
		c.rate += float64(c.cfg.MSS) / rtt.Seconds()
	}
	if c.rate > c.cfg.MaxRate {
		c.rate = c.cfg.MaxRate
	}
}

// OnCongestion reacts to a NAK or a warning rate request: the rate is cut
// in half and growth switches to the linear phase. suggested, when
// non-zero, is the receiver's advertised acceptable rate (from a CONTROL
// packet) and lower-bounds the cut. Cuts are limited to one per round
// trip so a burst of feedback from many receivers counts once, mirroring
// TCP's one-cut-per-window rule.
func (c *Controller) OnCongestion(now sim.Time, rtt sim.Time, suggested float64) {
	c.maybeResume(now)
	if c.phase == Stopped {
		return
	}
	if now-c.lastCut < rtt && c.lastCut != 0 {
		return
	}
	c.lastCut = now
	c.settle(now)
	target := c.rate / 2
	if suggested > 0 && suggested < target {
		target = suggested
	}
	if target < c.cfg.MinRate {
		target = c.cfg.MinRate
	}
	c.rate = target
	c.ssthresh = target
	c.phase = CongestionAvoidance
	c.lastGrow = now
	c.tokens = 0
}

// OnUrgent reacts to an urgent rate request: forward transmission stops
// for two round trips regardless of the advertised rate.
func (c *Controller) OnUrgent(now sim.Time, rtt sim.Time) {
	if rtt <= 0 {
		rtt = sim.Millisecond
	}
	until := now + 2*rtt
	if c.phase == Stopped {
		if until > c.stopped {
			c.stopped = until
		}
		return
	}
	c.settle(now)
	c.phase = Stopped
	c.stopped = until
	c.ssthresh = c.rate / 2
	if c.ssthresh < c.cfg.MinRate {
		c.ssthresh = c.cfg.MinRate
	}
	c.tokens = 0
	c.lastCut = now
}

// gsoSegment is one UDP GSO supersegment, the most the transport ships
// in one send.
const gsoSegment = 64 << 10

// depth is the bucket's capacity at rate r: two quanta of the rate, but
// at least one GSO supersegment — a driver that can wake every
// quantum still hands the transport full batches — and at most the
// paper's two jiffies of rate. It never drops below two packets (header
// included), or low rates would deadlock. With Quantum = Jiffy this is
// exactly two jiffies of rate.
func (c *Controller) depth(r float64) float64 {
	d := r * (2 * c.cfg.Quantum).Seconds()
	d = math.Min(math.Max(d, gsoSegment), r*(2*kernel.Jiffy).Seconds())
	return math.Max(d, float64(2*c.cfg.MSS))
}

// Beat is the period at which the bucket funds one burst at the current
// rate — half its depth over the rate — kept between the quantum and a
// jiffy: under a 350 µs quantum 1.024 ms for a 32 MB/s flow (half a
// supersegment), 0.35 ms for a 100 MB/s one, a jiffy for a 3 MB/s one.
// It is to this flow what the jiffy was to the per-jiffy transmitter,
// and with Quantum = Jiffy it is the jiffy.
func (c *Controller) Beat() sim.Time {
	b := sim.FromSeconds(c.depth(c.rate) / 2 / c.rate)
	return min(max(b, c.cfg.Quantum), kernel.Jiffy)
}

// FundedAt returns when the bucket will hold the next burst: one beat of
// rate or the whole backlog, whichever is less, and never less than
// first, the wire size of the next packet. A time at or before the
// caller's clock means it already does. Meaningless while stopped.
func (c *Controller) FundedAt(backlog, first int) sim.Time {
	want := math.Max(float64(first), math.Min(float64(backlog), c.rate*c.Beat().Seconds()))
	if !c.refillInit || c.tokens >= want {
		return c.lastRefill
	}
	return c.lastRefill + sim.Time(math.Round((want-c.tokens)/c.rate*float64(sim.Second)))
}

// Allowance refills the token bucket to now and returns the bytes that
// may be transmitted immediately. The bucket is capped at its depth so
// the sender can use a full beat's budget but cannot accumulate an
// unbounded burst.
func (c *Controller) Allowance(now sim.Time) int {
	c.maybeResume(now)
	r := c.Rate(now)
	if !c.refillInit {
		c.lastRefill = now
		c.refillInit = true
	}
	dt := now - c.lastRefill
	c.lastRefill = now
	if r <= 0 {
		c.tokens = 0
		return 0
	}
	c.tokens += r * dt.Seconds()
	if burst := c.depth(r); c.tokens > burst {
		c.tokens = burst
	}
	return int(c.tokens)
}

// settle refills the bucket as the last per-quantum tick before now
// would have. A driver that wakes the transmitter only at its deadlines
// skips the idle ticks in between, whose one effect is this refill; the
// events that empty the bucket settle it first, so what is left
// afterwards does not depend on which ticks were skipped.
func (c *Controller) settle(now sim.Time) {
	if k := (now - c.lastRefill - 1) / c.cfg.Quantum; c.refillInit && k > 0 {
		c.Allowance(c.lastRefill + k*c.cfg.Quantum)
	}
}

// Spend consumes n bytes of allowance.
func (c *Controller) Spend(n int) {
	c.tokens -= float64(n)
	if c.tokens < 0 {
		c.tokens = 0
	}
}

// StoppedUntil returns the end of the current urgent stop, if any.
func (c *Controller) StoppedUntil() (sim.Time, bool) {
	if c.phase == Stopped {
		return c.stopped, true
	}
	return 0, false
}
