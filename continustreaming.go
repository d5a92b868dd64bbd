// Package continustreaming is the public entry point to this reproduction
// of "ContinuStreaming: Achieving High Playback Continuity of Gossip-based
// Peer-to-Peer Streaming" (Li, Cao, Chen — IEEE IPDPS 2008).
//
// The package wraps the internal substrates (scheduling, DHT-assisted
// on-demand retrieval, overlay management, churn, metrics) behind a small
// API sufficient to run the paper's systems and regenerate its evaluation:
//
//	cfg := continustreaming.DefaultConfig(1000)
//	res, err := continustreaming.Run(cfg, 40)
//	fmt.Println(res.StableContinuity())
//
// Named scenario constructors (ScenarioHetDynamic, ScenarioFlashcrowd,
// …) build the configurations the evaluation runs; RunContext adds
// cooperative cancellation at round boundaries, and Config.OnRound
// streams per-round metrics while a long run progresses:
//
//	cfg := continustreaming.ScenarioFlashcrowd(100_000)
//	cfg.OnRound = func(round int, s continustreaming.Snapshot) {
//		log.Printf("round %d continuity %.3f", round, s.Continuity)
//	}
//	res, err := continustreaming.RunContext(ctx, cfg, 40)
//
// # Dissemination engine
//
// ContinuStreaming runs (System == ContinuStreaming or
// ContinuStreamingNoPrefetch) include the dissemination engine, three
// coordinated supplier-side mechanisms that let a segment reach the whole
// mesh within the playback delay at 8000+ nodes, where a pure-pull
// epidemic runs out of doubling rounds:
//
//   - Fresh-segment push: the source and its first-generation holders
//     eagerly forward each newly generated segment along mesh edges for
//     its first PushHops hops (default 2; a negative Config.PushHops
//     disables), so pull scheduling starts from dozens of seeded copies
//     instead of one.
//   - Supplier-side service ordering: a contended supplier serves
//     requests earliest-deadline-first with a rarest-first tie-break
//     computed from its own neighbours' buffer maps, instead of
//     requester-order FIFO.
//   - Outbound queueing: requests beyond a supplier's per-round backlog
//     horizon are carried in a bounded queue (QueueFactor × outbound
//     rate entries, default factor 2; a negative Config.QueueFactor
//     disables) to the next round, with deadline-based eviction, instead
//     of being dropped for the requester to retry.
//
// The CoolStreaming baseline deliberately runs without the engine — the
// comparison keeps measuring the protocol the paper compared against.
// Config.PushHops and Config.QueueFactor tune the engine; Result.
// ContinuityWarm reports continuity excluding nodes still inside their
// post-join warm-up (joiner ramp-up drag).
//
// # Live runtime
//
// RunLive executes the same protocol over real message passing — one
// livenet node per peer, channels as links, a wall-clock ticker as the
// scheduling period — driving the identical transport-agnostic decision
// core (internal/protocol) the simulator uses: mesh repair under churn,
// DHT-backed rescue, fresh-segment push and EDF serving. Peers learn who
// is alive only from the messages and gossip they receive, and newcomers
// join through the source as rendezvous point. LiveConfig's kill/join
// knobs script a churn session; this is the in-process repro of the
// paper's planned real-network validation. Setting LiveConfig.Listen
// switches to the multi-process socket path: the process runs the same
// node over UDP, bootstrapping through the rendezvous point at
// LiveConfig.Bootstrap (see cmd/livenode for the per-process binary and
// examples/multiproc for a whole-session driver).
//
// See cmd/continusim for the full experiment driver, examples/ for runnable
// scenarios, and EXPERIMENTS.md for paper-versus-measured results.
package continustreaming

import (
	"context"
	"fmt"
	"io"
	"time"

	"continustreaming/internal/churn"
	"continustreaming/internal/core"
	"continustreaming/internal/livenet"
	"continustreaming/internal/metrics"
	"continustreaming/internal/sim"
	"continustreaming/internal/theory"
)

// System selects which of the paper's compared systems to run.
type System int

// The three systems of the evaluation: the paper's full design, its
// scheduler without DHT retrieval (PC_old), and the CoolStreaming baseline.
const (
	ContinuStreaming System = iota
	ContinuStreamingNoPrefetch
	CoolStreaming
)

// String names the system.
func (s System) String() string {
	switch s {
	case ContinuStreaming:
		return "ContinuStreaming"
	case ContinuStreamingNoPrefetch:
		return "ContinuStreaming-noprefetch"
	case CoolStreaming:
		return "CoolStreaming"
	default:
		return fmt.Sprintf("system(%d)", int(s))
	}
}

func (s System) profile() core.Profile {
	switch s {
	case CoolStreaming:
		return core.ProfileCoolStreaming()
	case ContinuStreamingNoPrefetch:
		return core.ProfileSchedulingOnly()
	default:
		return core.ProfileContinuStreaming()
	}
}

// ChurnTrace is a per-round membership schedule for dynamic runs: leave
// and join fractions for every scheduling period, derived from a
// session-length distribution or loaded from a cmd/tracegen churn trace.
// Build one with ExponentialChurn, ParetoChurn, DiurnalChurn or
// ReadChurnTrace.
type ChurnTrace = churn.TraceModel

// ExponentialChurn models memoryless sessions with the given mean length
// in scheduling periods — the trace-driven equivalent of the paper's
// uniform model. It panics on non-physical parameters (rounds <= 0 or a
// non-positive mean): the arguments are model constants, not runtime
// input, so a bad value is a programming error.
func ExponentialChurn(rounds int, meanSessionRounds float64) *ChurnTrace {
	return churn.ExponentialTrace(rounds, meanSessionRounds)
}

// ParetoChurn models heavy-tailed session lengths (shape alpha > 1,
// minimum session length in rounds): a flood of short-lived peers over a
// stable long-lived core, the signature of measured P2P deployments.
// Like ExponentialChurn it panics on non-physical parameters (alpha <= 1
// or minSessionRounds <= 0); validate user-supplied values first.
func ParetoChurn(rounds int, alpha, minSessionRounds float64) *ChurnTrace {
	return churn.ParetoTrace(rounds, alpha, minSessionRounds)
}

// DiurnalChurn models a day-night audience swing between base and peak
// leave fractions over period rounds, with an optional correlated flash
// departure of flashFraction at flashRound (-1 for none). Like the other
// trace constructors it panics on non-physical parameters (period <= 0,
// fractions outside 0 <= base <= peak < 1, flashFraction outside [0,1)).
func DiurnalChurn(rounds, period int, base, peak float64, flashRound int, flashFraction float64) *ChurnTrace {
	return churn.DiurnalTrace(rounds, period, base, peak, flashRound, flashFraction)
}

// ReadChurnTrace parses a churn trace in the plain-text format emitted by
// cmd/tracegen -churn.
func ReadChurnTrace(r io.Reader) (*ChurnTrace, error) {
	return churn.ReadTrace(r)
}

// Config is the user-facing simulation configuration. Zero values select
// the paper's §5.2 defaults.
type Config struct {
	// Nodes is the overlay size including the single source.
	Nodes int
	// System selects the protocol under test.
	System System
	// Dynamic enables the paper's churn model (5% leaves + 5% joins per
	// scheduling period).
	Dynamic bool
	// Churn drives the dynamic environment from a per-round trace instead
	// of the uniform model. Setting it implies Dynamic.
	Churn *ChurnTrace
	// Neighbors overrides M (default 5).
	Neighbors int
	// PushHops overrides the dissemination engine's fresh-segment push
	// depth H: 0 selects the default (2), a negative value disables the
	// push phase. Ignored by the CoolStreaming baseline, which never
	// pushes.
	PushHops int
	// QueueFactor bounds the supplier-side carry queue at QueueFactor ×
	// outbound rate requests: 0 selects the default (2), a negative
	// value disables queueing (drop-and-retry). Ignored by the
	// CoolStreaming baseline.
	QueueFactor int
	// Homogeneous gives every node the mean bandwidth instead of drawing
	// from the paper's heterogeneous range — the arrangement of the §5.1
	// theory-versus-simulation table.
	Homogeneous bool
	// Seed drives all randomness; runs are fully deterministic per seed.
	Seed uint64
	// Workers caps the simulation worker pool (0 = GOMAXPROCS). The round
	// pipeline is sharded deterministically, so results are bit-identical
	// for a fixed seed at any worker count.
	Workers int
	// OnRound, when non-nil, is called after every completed scheduling
	// period with that round's metrics snapshot — a progress hook for
	// long runs (progress bars, early convergence detection, streaming
	// dashboards). It runs synchronously on the simulation goroutine, so
	// an expensive callback slows the run; it must not retain the
	// Snapshot's backing run or call back into the run. It does not
	// affect the simulation: results are bit-identical with or without
	// it.
	OnRound func(round int, s Snapshot)
	// PhaseProbe, when non-nil, is called at every phase boundary of every
	// scheduling period: once with each phase's name ("begin", "push",
	// "exchange", "predict", "prefetch", "schedule", "serve", "apply",
	// "playback", "maintenance", "churn", "dhtrepair") as the phase starts,
	// and once with "" when the round ends. The simulation core never reads
	// host time, so wall-clock phase profiling belongs to the caller: probe
	// implementations typically timestamp each call and charge the elapsed
	// delta to the previous phase (see continusim -phaseprof). Called
	// synchronously from the simulation's sequential spine; it does not
	// affect results.
	PhaseProbe func(phase string)
}

// Snapshot is one round's view of the paper's metrics, delivered to
// Config.OnRound as a run progresses. Values match the corresponding
// entry of the final Result series.
type Snapshot struct {
	// Round is the just-completed scheduling period, counting from 0.
	Round int
	// Nodes is how many nodes had an active playback position this round.
	Nodes int
	// Continuity, ContinuityWarm, ControlOverhead and PrefetchOverhead
	// are the round's values of the §5.3 metrics (warm excludes nodes
	// still inside post-join catch-up).
	Continuity       float64
	ContinuityWarm   float64
	ControlOverhead  float64
	PrefetchOverhead float64
}

// DefaultConfig returns the paper's configuration for n nodes.
func DefaultConfig(n int) Config {
	return Config{Nodes: n, System: ContinuStreaming, Seed: 1}
}

// Result exposes the metrics of one completed run.
type Result struct {
	// Continuity, ControlOverhead and PrefetchOverhead are the per-round
	// traces of the paper's three metrics (§5.3).
	Continuity       metrics.Series
	ControlOverhead  metrics.Series
	PrefetchOverhead metrics.Series
	// ContinuityWarm is continuity over the warm population only: nodes
	// past their first rounds of post-join catch-up. Under churn the
	// plain metric always counts a fraction of fresh joiners with empty
	// buffers against the protocol; the warm variant isolates
	// dissemination quality from that ramp-up drag.
	ContinuityWarm metrics.Series
}

// StableContinuity returns the stable-phase (final quarter) playback
// continuity.
func (r Result) StableContinuity() float64 {
	n := r.Continuity.Len() / 4
	if n < 1 {
		n = 1
	}
	return r.Continuity.TailMean(n)
}

// StableContinuityWarm returns the stable-phase warm-population
// continuity (see Result.ContinuityWarm).
func (r Result) StableContinuityWarm() float64 {
	n := r.ContinuityWarm.Len() / 4
	if n < 1 {
		n = 1
	}
	return r.ContinuityWarm.TailMean(n)
}

// StableControlOverhead returns the stable-phase control overhead.
func (r Result) StableControlOverhead() float64 {
	n := r.ControlOverhead.Len() / 4
	if n < 1 {
		n = 1
	}
	return r.ControlOverhead.TailMean(n)
}

// StablePrefetchOverhead returns the stable-phase pre-fetch overhead.
func (r Result) StablePrefetchOverhead() float64 {
	n := r.PrefetchOverhead.Len() / 4
	if n < 1 {
		n = 1
	}
	return r.PrefetchOverhead.TailMean(n)
}

// Run executes the configured system for the given number of scheduling
// periods (the paper's tracks use 30-40) and returns its metrics. It is
// RunContext with a background context.
func Run(cfg Config, rounds int) (Result, error) {
	return RunContext(context.Background(), cfg, rounds)
}

// RunContext is Run with cooperative cancellation: the context is checked
// at every round boundary, and when it is cancelled the run stops after
// the round in flight, returning the metrics of the rounds that did
// complete alongside the context's error. A run cut short this way is a
// valid prefix — its per-round series are bit-identical to the first
// rounds of an uninterrupted run with the same Config.
func RunContext(ctx context.Context, cfg Config, rounds int) (Result, error) {
	if rounds <= 0 {
		return Result{}, fmt.Errorf("continustreaming: non-positive round count %d", rounds)
	}
	inner := core.DefaultConfig(cfg.Nodes)
	inner.Profile = cfg.System.profile()
	if cfg.Neighbors > 0 {
		inner.M = cfg.Neighbors
	}
	core.ApplyKnobOverride(&inner.PushHops, cfg.PushHops)
	core.ApplyKnobOverride(&inner.QueueFactor, cfg.QueueFactor)
	if cfg.Homogeneous {
		inner.Bandwidth.Homogeneous = true
	}
	if cfg.Seed != 0 {
		inner.Seed = cfg.Seed
	}
	inner.Workers = cfg.Workers
	inner.PhaseProbe = cfg.PhaseProbe
	if cfg.Dynamic || cfg.Churn != nil {
		inner.Churn = churn.DefaultConfig()
		inner.Churn.Trace = cfg.Churn
	}
	world, err := core.NewWorld(inner)
	if err != nil {
		return Result{}, err
	}
	eng := sim.NewEngine(world, inner.Tau)
	col := world.Collector()
	if cfg.OnRound != nil {
		// Observers fire after each round's step with the clock still on
		// the executed round, and the collector has recorded that round's
		// sample by then — the last sample is the round just run.
		eng.Observe(func(clock *sim.Clock) {
			samples := col.Samples()
			s := samples[len(samples)-1]
			cfg.OnRound(clock.Round(), Snapshot{
				Round:            clock.Round(),
				Nodes:            s.PlayingNodes,
				Continuity:       s.Continuity(),
				ContinuityWarm:   s.ContinuityWarm(),
				ControlOverhead:  s.ControlOverhead(),
				PrefetchOverhead: s.PrefetchOverhead(),
			})
		})
	}
	var runErr error
	for r := 0; r < rounds; r++ {
		if err := ctx.Err(); err != nil {
			runErr = err
			break
		}
		eng.Run(1)
	}
	return Result{
		Continuity:       col.ContinuitySeries(),
		ControlOverhead:  col.ControlOverheadSeries(),
		PrefetchOverhead: col.PrefetchOverheadSeries(),
		ContinuityWarm:   col.ContinuityWarmSeries(),
	}, runErr
}

// LiveConfig parameterises a live (goroutine-per-peer, wall-clock) run of
// the protocol — the in-process repro of the paper's planned real-network
// deployment. Zero values select the shared protocol defaults, the same
// source the simulator derives from; the engine and repair knobs follow
// the simulator's override convention (0 = default, negative = disable).
type LiveConfig struct {
	// Peers is the audience size (the source is extra).
	Peers int
	// Neighbors overrides M (default 5).
	Neighbors int
	// PeriodMillis is the real-time scheduling period in milliseconds
	// (default 50; the paper's τ = 1 s scaled down so demos finish in
	// seconds).
	PeriodMillis int
	// PushHops overrides the dissemination engine's push depth: 0 keeps
	// the default (2), negative disables the push phase.
	PushHops int
	// QueueFactor bounds the supplier-side carry queue: 0 keeps the
	// default (2), negative disables queueing.
	QueueFactor int
	// NoRepair disables mesh repair and DHT-backed rescue; NoEngine the
	// dissemination engine (EDF serve + push + queueing) — the two
	// ablations the livenet kill scenario compares.
	NoRepair bool
	NoEngine bool
	// KillAtPeriod, when KillFraction > 0, schedules an abrupt failure
	// of that fraction of the peers at the given period; JoinCount peers
	// join through the rendezvous path JoinAfter periods later (0 joins
	// none).
	KillAtPeriod int
	KillFraction float64
	JoinCount    int
	JoinAfter    int
	// Listen switches RunLive to the multi-process socket path: this
	// process runs ONE peer bound to the given UDP address ("host:port",
	// port 0 picks a free one) instead of hosting the whole session
	// in-process. Messages cross real process boundaries as wire-encoded
	// datagrams; membership comes from the rendezvous bootstrap and
	// gossip, as it does in-process.
	Listen string
	// Bootstrap is the rendezvous point's address to join through. Empty
	// with Listen set makes this process the source/RP (which must be
	// NodeID 0). Ignored when Listen is empty.
	Bootstrap string
	// NodeID is this process's peer identity on the socket path (0 = the
	// source/RP). Every process in a session needs a distinct ID.
	NodeID int
	// Shape, when non-empty, applies deterministic WAN weather to this
	// node's UDP egress on the socket path: a comma-separated profile such
	// as "loss=2%,latency=50ms,jitter=20ms,rate=1mbit". Per-link fates are
	// drawn from ShapeSeed, so the same seed replays the same weather.
	// Only meaningful with Listen set — the in-process runtime has no
	// sockets to shape.
	Shape string
	// ShapeSeed seeds the traffic shaper's per-link RNG streams (0 is a
	// valid, distinct seed).
	ShapeSeed uint64
	// NoResync disables the socket path's continuous clock re-sync (period
	// stamps on every wire message; a node that discovers it is behind the
	// newest stamp jumps forward). On by default because a drifted node
	// silently plays behind the live edge.
	NoResync bool
	// RetryPeriods overrides how many periods an in-flight pull or rescue
	// stays pending before re-requesting (0 keeps the default, 2). Raise
	// it when shaped latency approaches the period, so retries do not
	// duplicate requests that are merely slow.
	RetryPeriods int
	// Seed drives topology and policy randomness.
	Seed uint64
}

// LiveResult summarises a finished live session.
type LiveResult struct {
	// Periods is how many scheduling periods ran; Delivered counts first
	// segment copies across all peers.
	Periods   int
	Delivered int64
	// Continuity is the fraction of peer-periods played continuously;
	// TailContinuity the same over the final quarter (the recovery
	// metric for churn scenarios).
	Continuity     float64
	TailContinuity float64
	// PushDelivered, Rescued and QueueServed attribute deliveries to the
	// engine's mechanisms; Replaced and DeadDropped count mesh-repair
	// actions; EndDeadLinks is how many links still pointed at dead
	// peers when the session drained (zero when repair kept up).
	PushDelivered int64
	Rescued       int64
	QueueServed   int64
	Replaced      int64
	DeadDropped   int64
	EndDeadLinks  int
	// Transport health counters: TransportDropped counts messages a full
	// inbox shed (on either transport). The rest are socket-path only and
	// zero for in-process sessions: ShapeDropped/ShapeDelayed the injected
	// shaper's loss and latency decisions, Resyncs the forward clock jumps
	// the re-sync mechanism made, and BehindPeriods the periods this node
	// spent trailing the newest period stamp it had seen (a liveness-drift
	// measure; re-sync keeps it near zero).
	TransportDropped int64
	ShapeDropped     int64
	ShapeDelayed     int64
	Resyncs          int
	BehindPeriods    int
}

// RunLive executes the protocol over real message passing for the given
// number of periods, with the same internal/protocol decision core as
// the simulator (mesh repair, DHT rescue, push, EDF serving). Without
// Listen it hosts the whole session in-process: one livenet node per
// peer over channels, all driven by one ticker, kills applied as node
// exits and joins bootstrapping through the source. With Listen it runs
// this process's one node over UDP on the node's own clock. It blocks
// until the session drains or ctx is cancelled.
func RunLive(ctx context.Context, cfg LiveConfig, periods int) (LiveResult, error) {
	if periods <= 0 {
		return LiveResult{}, fmt.Errorf("continustreaming: non-positive period count %d", periods)
	}
	inner := livenet.DefaultConfig()
	if cfg.Peers > 0 {
		inner.Peers = cfg.Peers
	}
	if cfg.Neighbors > 0 {
		inner.Neighbors = cfg.Neighbors
		inner.SourceDegree = 2 * cfg.Neighbors
	}
	if cfg.PeriodMillis > 0 {
		inner.Period = time.Duration(cfg.PeriodMillis) * time.Millisecond
	}
	core.ApplyKnobOverride(&inner.PushHops, cfg.PushHops)
	core.ApplyKnobOverride(&inner.QueueFactor, cfg.QueueFactor)
	inner.Repair = !cfg.NoRepair
	inner.Engine = !cfg.NoEngine
	inner.Resync = !cfg.NoResync
	if cfg.RetryPeriods > 0 {
		inner.RetryPeriods = cfg.RetryPeriods
	}
	if cfg.Seed != 0 {
		inner.Seed = cfg.Seed
	}
	if cfg.Shape != "" && cfg.Listen == "" {
		return LiveResult{}, fmt.Errorf("continustreaming: traffic shaping applies to the socket path; set Listen")
	}
	if cfg.Listen != "" {
		// Socket path: one peer per process over UDP. The in-process
		// churn script drives whole-session membership and has no meaning
		// for a single node — churn happens by processes dying.
		if cfg.KillFraction > 0 || cfg.JoinCount > 0 {
			return LiveResult{}, fmt.Errorf("continustreaming: churn scripts apply to in-process sessions, not a single socket-path node")
		}
		node, err := livenet.NewNode(inner, livenet.NodeConfig{
			ID:        cfg.NodeID,
			Listen:    cfg.Listen,
			Bootstrap: cfg.Bootstrap,
			Source:    cfg.Bootstrap == "",
			Shape:     cfg.Shape,
			ShapeSeed: cfg.ShapeSeed,
		})
		if err != nil {
			return LiveResult{}, err
		}
		st, err := node.Run(ctx, periods)
		if err != nil {
			return LiveResult{}, err
		}
		return liveResultOf(st), nil
	}
	if cfg.KillFraction > 0 {
		if cfg.KillAtPeriod <= 0 || cfg.KillAtPeriod >= periods {
			return LiveResult{}, fmt.Errorf("continustreaming: kill period %d outside session (1..%d)", cfg.KillAtPeriod, periods-1)
		}
		inner.Churn = append(inner.Churn, livenet.ChurnEvent{Period: cfg.KillAtPeriod, KillFraction: cfg.KillFraction})
	}
	if cfg.JoinCount > 0 {
		joinAt := cfg.KillAtPeriod + cfg.JoinAfter
		if joinAt <= 0 || joinAt >= periods {
			// Rejected rather than silently skipped: the driver only
			// consults the churn script for periods 0..periods-1, so an
			// out-of-range join would simply never happen.
			return LiveResult{}, fmt.Errorf("continustreaming: join period %d outside session (1..%d)", joinAt, periods-1)
		}
		inner.Churn = append(inner.Churn, livenet.ChurnEvent{Period: joinAt, Join: cfg.JoinCount})
	}
	st := livenet.Run(ctx, inner, periods)
	return liveResultOf(st), nil
}

// liveResultOf condenses livenet session stats into the public result;
// the tail metric covers the final quarter of the evaluated periods.
func liveResultOf(st livenet.Stats) LiveResult {
	tail := len(st.PerPeriod) / 4
	if tail < 1 {
		tail = 1
	}
	return LiveResult{
		Periods:        st.Periods,
		Delivered:      st.Delivered,
		Continuity:     st.Continuity,
		TailContinuity: st.TailContinuity(tail),
		PushDelivered:  st.PushDelivered,
		Rescued:        st.Rescued,
		QueueServed:    st.QueueServed,
		Replaced:       st.Replaced,
		DeadDropped:    st.DeadDropped,
		EndDeadLinks:   st.EndDeadLinks,

		TransportDropped: st.TransportDropped,
		ShapeDropped:     st.ShapeDropped,
		ShapeDelayed:     st.ShapeDelayed,
		Resyncs:          st.Resyncs,
		BehindPeriods:    st.BehindPeriods,
	}
}

// TheoreticalContinuity evaluates the paper's §5.1 Poisson model: the
// playback continuity without (PC_old) and with (PC_new) DHT-assisted
// on-demand retrieval, for arrival rate lambda segments/s, playback rate p
// segments/s, scheduling period tau seconds and k backup replicas.
func TheoreticalContinuity(lambda float64, p int, tau float64, k int) (pcOld, pcNew float64, err error) {
	m := theory.ContinuityModel{Lambda: lambda, PlaybackRate: p, TauSeconds: tau, Replicas: k}
	if err := m.Validate(); err != nil {
		return 0, 0, err
	}
	return m.PCOld(), m.PCNew(), nil
}
