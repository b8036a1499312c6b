package adaptive

import (
	"fmt"

	"hwprof/internal/event"
)

// This file lifts the package's offline adaptive-interval idea (§5.6.1)
// into the decision core of an online per-session elastic controller. The
// controller is transport-free and engine-free: the serving layer feeds it
// one Signals observation per interval boundary and applies the Actions it
// proposes — rebuilding the engine, journaling the resize, notifying the
// client. Every judgment uses the same engage/disengage hysteresis shape
// as the shed gate: a signal must persist for Engage consecutive
// boundaries to trigger, the opposite signal for Release boundaries to
// relax, and Settle boundaries of cooldown follow every committed action
// so the controller never flaps an engine it just rebuilt.

// Degradation-ladder rungs, in escalation order. Rung 1 is observational —
// the shed gate (reader-side, with its own hysteresis) is already dropping
// batches; the controller only accounts for it. Rungs 2–4 are actions the
// controller takes when shedding (or queue pressure on a block-policy
// session) persists.
const (
	// RungFull is full service at the session's current geometry.
	RungFull = 0
	// RungShed: the shed gate dropped events this interval (shed-policy
	// sessions only). No geometry change.
	RungShed = 1
	// RungCoarse: the interval was coarsened (doubled) to cut per-boundary
	// work — fewer EndInterval flushes, profile encodes, journal barriers.
	RungCoarse = 2
	// RungShrunk: the hash tables were halved to cut per-event work and
	// storage.
	RungShrunk = 3
	// RungParked: the session is parked with a typed notice; the client
	// backs off and Resumes.
	RungParked = 4
)

// Geometry is the resizable part of a session's engine shape. The
// candidate threshold is deliberately absent: ThresholdPercent never
// changes, so the absolute threshold count scales with the interval — the
// paper's own argument for why an interval resize is accuracy-neutral.
type Geometry struct {
	IntervalLength uint64
	TotalEntries   int
	Shards         int
}

// Signals is one interval boundary's observation set, gathered by the
// serving layer at the instant the boundary closes.
type Signals struct {
	// Cur is the geometry the interval just closed under.
	Cur Geometry
	// QueueLen is the number of batches queued behind the engine.
	QueueLen int
	// ShedDelta is the events shed during this interval (0 on block-policy
	// sessions).
	ShedDelta uint64
	// Distinct is the number of distinct tuples in the interval profile —
	// the occupancy signal against TotalEntries.
	Distinct int
	// Variation is the candidate-set variation versus the previous
	// interval in percent (the Figure 6 quantity); negative means unknown
	// (first boundary at this geometry).
	Variation float64
}

// Op labels what an Action does, for metrics and notices.
type Op string

// Controller actions.
const (
	OpGrowShards     Op = "grow-shards"     // scale up before degrading
	OpShrinkShards   Op = "shrink-shards"   // give extra shards back when calm
	OpCoarsen        Op = "coarsen"         // ladder rung 2: double the interval
	OpShrinkTables   Op = "shrink-tables"   // ladder rung 3: halve the tables
	OpPark           Op = "park"            // ladder rung 4: park with notice
	OpRestore        Op = "restore"         // step back down one rung
	OpShrinkInterval Op = "shrink-interval" // accuracy: variation too high
	OpGrowInterval   Op = "grow-interval"   // accuracy: profile stable
	OpGrowTables     Op = "grow-tables"     // occupancy: distinct ≫ entries
	OpShed           Op = "shed"            // rung 1 entered (observational)
)

// Action is one proposed controller step. The serving layer applies it —
// re-pricing admission, journaling, rebuilding the engine — then commits
// or refuses it back to the controller; the controller's rung and cooldown
// advance only on commit.
type Action struct {
	Op       Op
	Geometry Geometry // target geometry (current geometry for OpPark/OpShed)
	Rung     int      // ladder rung after the action
	Reason   string   // the arithmetic that triggered it, client-facing
}

// Resizes reports whether the action changes the engine geometry.
func (a Action) Resizes(cur Geometry) bool { return a.Geometry != cur }

// ElasticConfig parameterizes one session's controller.
type ElasticConfig struct {
	// Admitted is the geometry the session was admitted with — the shape
	// de-escalation restores toward.
	Admitted Geometry

	// Tables is the session's (fixed) hash-table count: entries resizes
	// must keep TotalEntries divisible by it with a power-of-two quotient.
	Tables int

	// MinLength and MaxLength bound the adapted interval length.
	MinLength, MaxLength uint64

	// MinEntries floors table shrinking; MaxEntries caps table growth.
	MinEntries, MaxEntries int

	// MaxShards caps shard scale-up.
	MaxShards int

	// HighWater and LowWater are the queue-length pressure watermarks —
	// the same values the shed gate uses, so the two hystereses agree on
	// what "pressure" means.
	HighWater, LowWater int

	// ShrinkAbove and GrowBelow are the candidate-variation percentages
	// (§5.6.1) beyond which the interval shrinks or grows.
	ShrinkAbove, GrowBelow float64

	// OccupancyHigh is the distinct-tuples/TotalEntries ratio above which
	// the tables grow (hash pressure costs accuracy).
	OccupancyHigh float64

	// Engage is how many consecutive boundaries a signal must persist
	// before the controller acts; Release how many calm boundaries before
	// it de-escalates; Settle the cooldown after every committed action.
	Engage, Release, Settle int

	// CanAfford asks the admission layer whether the tenant's budget fits
	// a candidate geometry before the controller proposes it; nil means
	// always. (The serving layer re-prices authoritatively at commit —
	// this only steers proposals away from certain refusals.)
	CanAfford func(Geometry) bool

	// FixedInterval pins the interval length (publishing sessions: the
	// interval is the fleet epoch contract). Coarsening skips to table
	// shrinking and the accuracy axis is disabled.
	FixedInterval bool

	// Shed reports whether the session runs the shed backpressure policy,
	// enabling rung 1.
	Shed bool
}

// withElasticDefaults fills the zero knobs from the admitted geometry.
func (c ElasticConfig) withElasticDefaults() ElasticConfig {
	if c.Tables <= 0 {
		c.Tables = 1
	}
	if c.MinLength == 0 {
		if c.MinLength = c.Admitted.IntervalLength / 16; c.MinLength < 64 {
			c.MinLength = 64
		}
	}
	if c.MaxLength == 0 {
		c.MaxLength = c.Admitted.IntervalLength * 16
	}
	if c.MinEntries == 0 {
		if c.MinEntries = c.Admitted.TotalEntries / 8; c.MinEntries < c.Tables {
			c.MinEntries = c.Tables
		}
	}
	if c.MaxEntries == 0 {
		c.MaxEntries = c.Admitted.TotalEntries * 8
	}
	if c.MaxShards == 0 {
		c.MaxShards = c.Admitted.Shards
	}
	if c.ShrinkAbove == 0 {
		c.ShrinkAbove = 60
	}
	if c.GrowBelow == 0 {
		c.GrowBelow = 10
	}
	if c.OccupancyHigh == 0 {
		c.OccupancyHigh = 1
	}
	if c.Engage == 0 {
		c.Engage = 3
	}
	if c.Release == 0 {
		c.Release = 8
	}
	if c.Settle == 0 {
		c.Settle = 4
	}
	return c
}

// Elastic is one session's controller state. It is not safe for concurrent
// use; the serving layer drives it from the session's worker goroutine.
type Elastic struct {
	cfg  ElasticConfig
	rung int
	cool int

	hi, lo           int // pressure / calm streaks
	varHi, varLo     int // variation streaks (accuracy axis)
	occHi            int // occupancy streak
	pendingRung      int // rung a proposed action moves to, applied on Commit
	pendingValid     bool
	prevCands        map[event.Tuple]bool
	prevCandsStorage map[event.Tuple]bool // double-buffer for candidate sets
}

// NewElastic builds a controller for a session admitted at cfg.Admitted.
func NewElastic(cfg ElasticConfig) *Elastic {
	return &Elastic{cfg: cfg.withElasticDefaults()}
}

// Rung returns the session's current degradation-ladder rung.
func (e *Elastic) Rung() int { return e.rung }

// ObserveProfile computes the boundary's accuracy signals — distinct-tuple
// count and candidate-set variation versus the previous interval — from
// the interval profile, before the serving layer recycles the map.
// threshold is the absolute candidate threshold that applied.
func (e *Elastic) ObserveProfile(profile map[event.Tuple]uint64, threshold uint64) (distinct int, variation float64) {
	distinct = len(profile)
	next := e.prevCandsStorage
	if next == nil {
		next = make(map[event.Tuple]bool)
	} else {
		clear(next)
	}
	for t, n := range profile {
		if n >= threshold {
			next[t] = true
		}
	}
	variation = -1
	if e.prevCands != nil {
		variation = variationPct(e.prevCands, next)
	}
	e.prevCandsStorage = e.prevCands
	e.prevCands = next
	return distinct, variation
}

// Boundary digests one boundary's signals and proposes at most one action.
// The caller must answer every proposal with Commit or Refuse before the
// next Boundary call.
func (e *Elastic) Boundary(sig Signals) (Action, bool) {
	cfg := &e.cfg
	pressure := sig.QueueLen >= cfg.HighWater || sig.ShedDelta > 0
	calm := sig.QueueLen <= cfg.LowWater && sig.ShedDelta == 0
	switch {
	case pressure:
		e.hi, e.lo = e.hi+1, 0
	case calm:
		e.hi, e.lo = 0, e.lo+1
	default:
		e.hi, e.lo = 0, 0 // between the watermarks: streaks must be consecutive
	}
	if sig.Variation >= 0 {
		switch {
		case sig.Variation > cfg.ShrinkAbove:
			e.varHi, e.varLo = e.varHi+1, 0
		case sig.Variation < cfg.GrowBelow:
			e.varHi, e.varLo = 0, e.varLo+1
		default:
			e.varHi, e.varLo = 0, 0
		}
	} else {
		e.varHi, e.varLo = 0, 0
	}
	if float64(sig.Distinct) > cfg.OccupancyHigh*float64(sig.Cur.TotalEntries) {
		e.occHi++
	} else {
		e.occHi = 0
	}

	// Rung 1 is observational and free — no engine rebuild — so it is not
	// gated by the cooldown.
	if cfg.Shed && e.rung == RungFull && sig.ShedDelta > 0 {
		return e.propose(Action{
			Op: OpShed, Geometry: sig.Cur, Rung: RungShed,
			Reason: fmt.Sprintf("shed gate dropped %d event(s) this interval", sig.ShedDelta),
		})
	}

	if e.cool > 0 {
		e.cool--
		return Action{}, false
	}

	if e.hi >= cfg.Engage {
		return e.escalate(sig)
	}
	if e.lo >= cfg.Release {
		if a, ok := e.deescalate(sig); ok {
			return a, true
		}
	}
	// The accuracy and occupancy axes act only at full service with no
	// pressure building: degradation owns the geometry above rung 1.
	if e.rung <= RungShed && e.hi == 0 {
		return e.adapt(sig)
	}
	return Action{}, false
}

// escalate proposes the next step up: scale out if the budget allows,
// otherwise climb the degradation ladder.
func (e *Elastic) escalate(sig Signals) (Action, bool) {
	cfg := &e.cfg
	cur := sig.Cur

	// Scale up before degrading: more shards soak queue pressure without
	// costing accuracy — if the tenant's budget can pay for them.
	if ns := growShards(cur.Shards, cur.TotalEntries, cfg.MaxShards); ns > cur.Shards {
		g := cur
		g.Shards = ns
		if e.afford(g) {
			return e.propose(Action{
				Op: OpGrowShards, Geometry: g, Rung: e.rung,
				Reason: fmt.Sprintf("queue pressure %d ≥ %d for %d boundaries: %d → %d shard(s)",
					sig.QueueLen, cfg.HighWater, e.hi, cur.Shards, ns),
			})
		}
	}
	// Rung 1 comes next on a shed-policy session: its gate engages at the
	// same high water this controller escalates at, so pressure at full
	// service is the gate shedding even when no batch has been dropped
	// before this boundary. Climbing straight to rung 2 would skip it.
	if cfg.Shed && e.rung < RungShed {
		return e.propose(Action{
			Op: OpShed, Geometry: cur, Rung: RungShed,
			Reason: fmt.Sprintf("queue pressure %d ≥ %d for %d boundaries at full service", sig.QueueLen, cfg.HighWater, e.hi),
		})
	}
	// Rung 2: coarsen the interval — fewer boundaries means less flush,
	// encode and journal work per event. Under the cost model a longer
	// interval is a cost increase, so a tight tenant budget may refuse it;
	// fall through to shrinking, which always reduces cost.
	if !cfg.FixedInterval && e.rung < RungCoarse && cur.IntervalLength*2 <= cfg.MaxLength {
		g := cur
		g.IntervalLength = cur.IntervalLength * 2
		if e.afford(g) {
			return e.propose(Action{
				Op: OpCoarsen, Geometry: g, Rung: RungCoarse,
				Reason: fmt.Sprintf("sustained pressure (queue %d, shed +%d): interval %d → %d",
					sig.QueueLen, sig.ShedDelta, cur.IntervalLength, g.IntervalLength),
			})
		}
	}
	// Rung 3: shrink the tables — less storage and per-event work, and a
	// guaranteed cost reduction.
	if e.rung < RungShrunk && shrinkableEntries(cur.TotalEntries, cfg.Tables, cfg.MinEntries) {
		g := cur
		g.TotalEntries = cur.TotalEntries / 2
		g.Shards = clampShards(cur.Shards, g.TotalEntries)
		return e.propose(Action{
			Op: OpShrinkTables, Geometry: g, Rung: RungShrunk,
			Reason: fmt.Sprintf("sustained pressure (queue %d, shed +%d): entries %d → %d",
				sig.QueueLen, sig.ShedDelta, cur.TotalEntries, g.TotalEntries),
		})
	}
	// Rung 4: nothing left to give up — park, let the client back off.
	if e.rung < RungParked {
		return e.propose(Action{
			Op: OpPark, Geometry: cur, Rung: RungParked,
			Reason: fmt.Sprintf("pressure persists at the ladder floor (queue %d, shed +%d): parking",
				sig.QueueLen, sig.ShedDelta),
		})
	}
	e.hi = 0 // fully degraded and still hot; retry after another streak
	return Action{}, false
}

// deescalate proposes one step back toward the admitted geometry.
func (e *Elastic) deescalate(sig Signals) (Action, bool) {
	cfg := &e.cfg
	cur := sig.Cur
	switch {
	case e.rung == RungParked:
		// The session resumed and stayed calm: re-enter service accounting
		// at the shrunk shape it parked in.
		return e.propose(Action{
			Op: OpRestore, Geometry: cur, Rung: RungShrunk,
			Reason: "resumed calm after park",
		})
	case e.rung == RungShrunk && cur.TotalEntries < cfg.Admitted.TotalEntries:
		g := cur
		g.TotalEntries = cur.TotalEntries * 2
		if g.TotalEntries > cfg.Admitted.TotalEntries {
			g.TotalEntries = cfg.Admitted.TotalEntries
		}
		g.Shards = clampShards(cur.Shards, g.TotalEntries)
		if !e.afford(g) {
			e.lo = 0
			return Action{}, false
		}
		rung := RungShrunk
		if g.TotalEntries == cfg.Admitted.TotalEntries {
			rung = RungCoarse
		}
		return e.propose(Action{
			Op: OpRestore, Geometry: g, Rung: rung,
			Reason: fmt.Sprintf("calm for %d boundaries: entries %d → %d", e.lo, cur.TotalEntries, g.TotalEntries),
		})
	case e.rung == RungShrunk: // entries already back; skip the rung
		return e.propose(Action{Op: OpRestore, Geometry: cur, Rung: RungCoarse, Reason: "calm; tables already restored"})
	case e.rung == RungCoarse && !cfg.FixedInterval && cur.IntervalLength != cfg.Admitted.IntervalLength:
		g := cur
		g.IntervalLength = cfg.Admitted.IntervalLength
		if !e.afford(g) {
			e.lo = 0
			return Action{}, false
		}
		return e.propose(Action{
			Op: OpRestore, Geometry: g, Rung: RungFull,
			Reason: fmt.Sprintf("calm for %d boundaries: interval %d → %d", e.lo, cur.IntervalLength, g.IntervalLength),
		})
	case e.rung == RungCoarse:
		return e.propose(Action{Op: OpRestore, Geometry: cur, Rung: RungFull, Reason: "calm; interval already restored"})
	case e.rung == RungShed:
		return e.propose(Action{Op: OpRestore, Geometry: cur, Rung: RungFull, Reason: "shed gate quiet"})
	case cur.Shards > cfg.Admitted.Shards:
		// Fully serviced with scale-up still held: give the shards back.
		g := cur
		g.Shards = clampShards(cfg.Admitted.Shards, cur.TotalEntries)
		if g.Shards != cur.Shards {
			return e.propose(Action{
				Op: OpShrinkShards, Geometry: g, Rung: e.rung,
				Reason: fmt.Sprintf("calm for %d boundaries: %d → %d shard(s)", e.lo, cur.Shards, g.Shards),
			})
		}
	}
	e.lo = 0
	return Action{}, false
}

// adapt runs the §5.6.1 accuracy axis and the occupancy axis at full
// service: interval length tracks candidate variation, table size tracks
// distinct-tuple pressure.
func (e *Elastic) adapt(sig Signals) (Action, bool) {
	cfg := &e.cfg
	cur := sig.Cur
	if e.occHi >= cfg.Engage && cur.TotalEntries*2 <= cfg.MaxEntries {
		g := cur
		g.TotalEntries = cur.TotalEntries * 2
		if e.afford(g) {
			return e.propose(Action{
				Op: OpGrowTables, Geometry: g, Rung: e.rung,
				Reason: fmt.Sprintf("%d distinct tuples over %d entries for %d boundaries: entries → %d",
					sig.Distinct, cur.TotalEntries, e.occHi, g.TotalEntries),
			})
		}
	}
	if cfg.FixedInterval {
		return Action{}, false
	}
	if e.varHi >= cfg.Engage && cur.IntervalLength/2 >= cfg.MinLength {
		g := cur
		g.IntervalLength = cur.IntervalLength / 2
		return e.propose(Action{
			Op: OpShrinkInterval, Geometry: g, Rung: e.rung,
			Reason: fmt.Sprintf("candidate variation %.1f%% > %.1f%% for %d boundaries: interval → %d",
				sig.Variation, cfg.ShrinkAbove, e.varHi, g.IntervalLength),
		})
	}
	if e.varLo >= cfg.Engage && cur.IntervalLength*2 <= cfg.MaxLength {
		g := cur
		g.IntervalLength = cur.IntervalLength * 2
		if e.afford(g) {
			return e.propose(Action{
				Op: OpGrowInterval, Geometry: g, Rung: e.rung,
				Reason: fmt.Sprintf("candidate variation %.1f%% < %.1f%% for %d boundaries: interval → %d",
					sig.Variation, cfg.GrowBelow, e.varLo, g.IntervalLength),
			})
		}
	}
	return Action{}, false
}

// propose stages an action; its rung lands only when the caller Commits.
func (e *Elastic) propose(a Action) (Action, bool) {
	e.pendingRung, e.pendingValid = a.Rung, true
	return a, true
}

// Commit applies a proposed action's ladder transition and starts the
// cooldown. The candidate history resets when the geometry changed — the
// old threshold no longer means the same thing (the offline controller
// makes the same call).
func (e *Elastic) Commit(a Action, cur Geometry) {
	if e.pendingValid {
		e.rung = e.pendingRung
		e.pendingValid = false
	}
	e.hi, e.lo, e.varHi, e.varLo, e.occHi = 0, 0, 0, 0, 0
	e.cool = e.cfg.Settle
	if a.Resizes(cur) {
		e.prevCands, e.prevCandsStorage = nil, nil
	}
}

// Refuse abandons a proposed action (the authoritative re-price at commit
// time found the budget gone). The rung stays; a cooldown still applies so
// the controller does not hammer a refusing budget every boundary.
func (e *Elastic) Refuse() {
	e.pendingValid = false
	e.hi, e.lo = 0, 0
	e.cool = e.cfg.Settle
}

func (e *Elastic) afford(g Geometry) bool {
	return e.cfg.CanAfford == nil || e.cfg.CanAfford(g)
}

// growShards doubles the shard count, clamped to max and to divisibility
// of the counter storage (the same fallback loop admission runs).
func growShards(cur, entries, max int) int {
	ns := cur * 2
	if ns > max {
		ns = max
	}
	for ns > cur && entries%ns != 0 {
		ns--
	}
	if ns < cur {
		return cur
	}
	return ns
}

// clampShards reduces a shard count until it divides the counter storage.
func clampShards(shards, entries int) int {
	if shards < 1 {
		return 1
	}
	for shards > 1 && entries%shards != 0 {
		shards--
	}
	return shards
}

// shrinkableEntries reports whether halving keeps the geometry legal: the
// floor respected and the per-table quotient a power of two ≥ 1 (halving
// preserves power-of-two-ness, so only the floor really binds).
func shrinkableEntries(entries, tables, min int) bool {
	half := entries / 2
	return half >= min && half >= tables && half%tables == 0
}
