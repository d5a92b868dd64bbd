package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"continustreaming/internal/buffer"
	"continustreaming/internal/livenet"
	"continustreaming/internal/segment"
	"continustreaming/internal/sim"
)

// livePeriod is τ in both live workloads.
const livePeriod = 25 * time.Millisecond

// liveSession is what the benchmark saw of one live session.
type liveSession struct {
	periods int
	wall    time.Duration
	cpu     time.Duration
	gc      uint32
	pauseNs uint64
	// heap is the live heap when the session ended.
	heap uint64
	// rss is the peak resident set while the session, its set-up
	// included, ran.
	rss    float64
	traced bool
	// Stats of every node (one entry for the in-process driver).
	stats []livenet.Stats
}

// receivers returns the stats that cover receiving peers: the session's
// for the in-process driver, every node's but the source's (node 0) on
// the socket path.
func (s liveSession) receivers() []livenet.Stats {
	if len(s.stats) > 1 {
		return s.stats[1:]
	}
	return s.stats
}

func (s liveSession) rtf() float64 {
	return s.wall.Seconds() / (float64(s.periods) * livePeriod.Seconds())
}

func (s liveSession) cpuPerPeriod() float64 { return ms(s.cpu) / float64(s.periods) }

// continuity pools every receiver's peer-periods: the session mean, and
// the mean over each receiver's final quarter.
func (s liveSession) continuity() (all, tail float64) {
	var sum, n, tsum, tn float64
	for _, st := range s.receivers() {
		k := len(st.PerPeriod) / 4
		for i, v := range st.PerPeriod {
			sum += v
			n++
			if i >= len(st.PerPeriod)-k {
				tsum += v
				tn++
			}
		}
	}
	return ratio(sum, n), ratio(tsum, tn)
}

// totals sums the stats of every node of every session, and counts the
// periods the sessions ran.
func totals(sessions []liveSession) (t livenet.Stats, periods float64) {
	for _, s := range sessions {
		periods += float64(s.periods)
		for _, st := range s.stats {
			t.Delivered += st.Delivered
			t.PushDelivered += st.PushDelivered
			t.Rescued += st.Rescued
			t.RescueAsked += st.RescueAsked
			t.QueueCarried += st.QueueCarried
			t.DeadDropped += st.DeadDropped
			t.Replaced += st.Replaced
			t.EndDeadLinks += st.EndDeadLinks
			t.AsksSent += st.AsksSent
			t.AsksReceived += st.AsksReceived
			t.GrantsSent += st.GrantsSent
			t.GrantsEvicted += st.GrantsEvicted
			t.TransportDropped += st.TransportDropped
			t.ShapeDropped += st.ShapeDropped
			t.ShapeDelayed += st.ShapeDelayed
			t.Resyncs += st.Resyncs
			t.BehindPeriods += st.BehindPeriods
		}
	}
	return t, periods
}

// measureSession runs fn as one session and charges it the wall time,
// process CPU and GC activity it caused.
func measureSession(periods int, fn func() ([]livenet.Stats, error)) (liveSession, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cpu0, t0 := cpuTime(), time.Now()
	stats, err := fn()
	s := liveSession{periods: periods, wall: time.Since(t0), cpu: cpuTime() - cpu0, stats: stats}
	runtime.ReadMemStats(&after)
	s.gc, s.pauseNs, s.heap = after.NumGC-before.NumGC, after.PauseTotalNs-before.PauseTotalNs, after.HeapAlloc
	return s, err
}

// liveWorkload is one live workload: how to set a session up, and how to
// run one.
type liveWorkload struct {
	periods int
	// setups is how many set-up times a run takes the median of.
	setups int
	// setup returns one sample of the workload's set-up time.
	setup func(seed uint64) (time.Duration, error)
	// session runs one session, recording spans on tr (nil = untraced).
	session func(ctx context.Context, seed uint64, tr *tracer, parent int) (liveSession, error)
	// checks adds the workload-specific output checks over all sessions.
	checks func(res *result, sessions []liveSession)
	// layers, when set, adds per-layer metrics the sessions' stats do
	// not hold.
	layers func(e *env, res *result)
}

// runLive drives sessions until the time budget is spent (at least two,
// alternating untraced and traced in trace mode) and reports medians.
func runLive(e *env, lw liveWorkload) *result {
	res := &result{}
	runSpan := e.tr.open("run", 0)
	defer e.tr.close(runSpan)
	var setups []float64
	for i := 0; i < lw.setups; i++ {
		// Collect the previous sample's peers first, so every sample sets
		// up on a settled heap and set-ups do not pile up into the peak
		// RSS the sessions report.
		runtime.GC()
		d, err := lw.setup(deriveSeed(e.seed, 0x5e7+uint64(i)))
		if err != nil {
			res.check("live.setup", false, "%v", err)
			return res
		}
		setups = append(setups, d.Seconds())
	}
	var sessions []liveSession
	begin := time.Now()
	for i := 0; i < 2 || time.Since(begin) < e.budget(); i++ {
		traced := e.trace && i%2 == 1
		var tr *tracer
		if traced {
			tr = e.tr
		}
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		span := tr.open("session", runSpan)
		var s liveSession
		var err error
		rss := peakRSS(func() { s, err = lw.session(ctx, deriveSeed(e.seed, 0x11fe+uint64(i)), tr, span) })
		tr.close(span)
		cancel()
		s.traced, s.rss = traced, rss
		res.attempted += s.periods
		if err != nil {
			res.failed += s.periods
			res.check("live.session", false, "session %d: %v", i, err)
			return res
		}
		sessions = append(sessions, s)
	}
	// Every session ran and every receiving node reported deliveries.
	ran := true
	for _, s := range sessions {
		for _, st := range s.receivers() {
			if st.Periods == 0 || len(st.PerPeriod) == 0 || st.Delivered <= 0 {
				ran = false
			}
		}
	}
	res.check("live.nodes_reported", ran, "%d sessions; every receiver ran periods and delivered segments", len(sessions))
	lw.checks(res, sessions)

	var rtf, cpu, rss, cont, tail []float64
	for _, s := range sessions {
		rss = append(rss, s.rss)
		rtf = append(rtf, s.rtf())
		cpu = append(cpu, s.cpuPerPeriod())
		c, t := s.continuity()
		cont = append(cont, c)
		tail = append(tail, t)
	}
	res.check("live.continuity_range", finiteIn(median(cont), 0, 1) && median(cont) > 0, "median continuity %.4f", median(cont))
	res.check("live.rss", median(rss) > 0, "median peak resident set %.2f MiB", median(rss))
	n := len(sessions)
	res.samples = n
	if !e.trace {
		res.add("setup_s", "s", median(setups), len(setups))
		res.add("rtf", "ratio", median(rtf), n)
		res.add("cpu_ms_per_period", "ms", median(cpu), n)
		res.add("peak_rss_mb", "MB", median(rss), n)
		return res
	}
	res.add("live.continuity", "ratio", median(cont), n)
	res.add("live.tail_continuity", "ratio", median(tail), n)
	var tracedCPU, untracedCPU, tracedWall, untracedWall []float64
	for _, s := range sessions {
		period := ms(s.wall) / float64(s.periods)
		if s.traced {
			tracedCPU = append(tracedCPU, s.cpuPerPeriod())
			tracedWall = append(tracedWall, period)
		} else {
			untracedCPU = append(untracedCPU, s.cpuPerPeriod())
			untracedWall = append(untracedWall, period)
		}
	}
	res.add("trace.round_ms_p50_overhead", "ms", median(tracedWall)-median(untracedWall), n)
	res.add("trace.cpu_ms_per_period_overhead", "ms", median(tracedCPU)-median(untracedCPU), n)
	liveFunnel(res, sessions)
	if lw.layers != nil {
		lw.layers(e, res)
	}
	return res
}

// liveFunnel reports the per-layer metrics both live workloads read from
// livenet.Stats, summed over nodes and sessions, and their GC activity.
// The socket-path counters read 0 from the in-process driver.
func liveFunnel(res *result, sessions []liveSession) {
	t, periods := totals(sessions)
	var gc, pause float64
	var heap []float64
	for _, s := range sessions {
		gc += float64(s.gc)
		pause += float64(s.pauseNs) / 1e6
		heap = append(heap, float64(s.heap)/(1<<20))
	}
	n := len(sessions)
	perSession := func(v float64) float64 { return v / float64(n) }
	perPeriod := func(v float64) float64 { return v / periods }
	res.add("livenet.asks", "count/period", float64(t.AsksSent)/periods, n)
	res.add("livenet.ask_arrival_ratio", "ratio", ratio(float64(t.AsksReceived), float64(t.AsksSent)), n)
	res.add("livenet.grant_ratio", "ratio", ratio(float64(t.GrantsSent), float64(t.AsksReceived)), n)
	res.add("livenet.evict_ratio", "ratio", ratio(float64(t.GrantsEvicted), float64(t.AsksReceived)), n)
	res.add("livenet.push_share", "ratio", ratio(float64(t.PushDelivered), float64(t.Delivered)), n)
	res.add("livenet.rescue_ratio", "ratio", ratio(float64(t.Rescued), float64(t.RescueAsked)), n)
	res.add("livenet.queue_carried", "count/period", perPeriod(float64(t.QueueCarried)), n)
	res.add("livenet.replaced", "count/session", perSession(float64(t.Replaced)), n)
	res.add("livenet.dead_dropped", "count/session", perSession(float64(t.DeadDropped)), n)
	res.add("livenet.end_dead_links", "count/session", perSession(float64(t.EndDeadLinks)), n)
	res.add("udptransport.dropped", "count/period", perPeriod(float64(t.TransportDropped)), n)
	res.add("shaper.dropped", "count/period", perPeriod(float64(t.ShapeDropped)), n)
	res.add("shaper.delayed", "count/period", perPeriod(float64(t.ShapeDelayed)), n)
	res.add("node.resyncs", "count/period", perPeriod(float64(t.Resyncs)), n)
	res.add("node.behind_periods", "count/period", perPeriod(float64(t.BehindPeriods)), n)
	res.add("go.gc_cycles", "count/period", gc/periods, n)
	res.add("go.gc_pause_ms", "ms/period", pause/periods, n)
	res.add("go.heap_alloc_mb", "MB", median(heap), n)
}

// churnWorkload is live-churn512: the in-process driver with 512
// receivers; a quarter of them are killed at mid-session and as many
// join two periods later.
func churnWorkload() liveWorkload {
	const peers, periods = 512, 160
	config := func(seed uint64) livenet.Config {
		cfg := livenet.DefaultConfig()
		cfg.Peers = peers
		cfg.Period = livePeriod
		cfg.Seed = seed
		return cfg
	}
	return liveWorkload{
		periods: periods,
		setups:  7,
		// The driver builds its peers inside Run, so set-up is timed as
		// a one-period session less its one period of waiting.
		setup: func(seed uint64) (time.Duration, error) {
			t0 := time.Now()
			st := livenet.Run(context.Background(), config(seed), 1)
			d := time.Since(t0) - livePeriod
			if st.Periods != 1 {
				return d, fmt.Errorf("one-period session ran %d periods", st.Periods)
			}
			return d, nil
		},
		session: func(ctx context.Context, seed uint64, tr *tracer, parent int) (liveSession, error) {
			cfg := config(seed)
			kill := periods / 2
			cfg.Churn = []livenet.ChurnEvent{
				{Period: kill, KillFraction: 0.25},
				{Period: kill + 2, Join: peers / 4},
			}
			return measureSession(periods, func() ([]livenet.Stats, error) {
				span := tr.open("livenet.Run", parent)
				st := livenet.Run(ctx, cfg, periods)
				tr.close(span)
				return []livenet.Stats{st}, ctx.Err()
			})
		},
		checks: func(res *result, sessions []liveSession) {
			ok := true
			detail := ""
			lag := livenet.DefaultConfig().PlaybackLagPeriods
			for i, s := range sessions {
				st := s.stats[0]
				if st.Periods != periods || len(st.PerPeriod) != periods-lag || st.Killed != peers/4 || st.Joined != peers/4 || st.EndDeadLinks != 0 {
					ok = false
					detail = fmt.Sprintf("session %d: periods %d, evaluated %d, killed %d, joined %d, end_dead_links %d",
						i, st.Periods, len(st.PerPeriod), st.Killed, st.Joined, st.EndDeadLinks)
				}
			}
			res.check("live.churn_session", ok, "every period ran, %d killed and rejoined, no dead links at the end %s", peers/4, detail)
		},
	}
}

// udpShape is the WAN weather on every egress of live-udp32.
const udpShape = "loss=2%,latency=10ms,jitter=5ms"

// udpWorkload is live-udp32: a source and 32 receivers, each a
// livenet.Node on the loopback interface inside this process, every
// egress shaped by udpShape.
func udpWorkload(e *env) liveWorkload {
	const peers, periods = 32, 160
	shapeSeed := deriveSeed(e.seed, 0x5ba9e)
	config := func(seed uint64) livenet.Config {
		cfg := livenet.DefaultConfig()
		cfg.Peers = peers
		cfg.Period = livePeriod
		cfg.Seed = seed
		return cfg
	}
	// newNodes binds every node: the source first, then the receivers
	// bootstrapping through it.
	newNodes := func(cfg livenet.Config, tr *tracer, parent int) ([]*livenet.Node, error) {
		nodes := make([]*livenet.Node, 0, peers+1)
		for id := 0; id <= peers; id++ {
			nc := livenet.NodeConfig{ID: id, Listen: "127.0.0.1:0", Source: id == 0, Shape: udpShape, ShapeSeed: shapeSeed}
			if id > 0 {
				nc.Bootstrap = nodes[0].Addr()
			}
			span := tr.open("livenet.NewNode", parent)
			n, err := livenet.NewNode(cfg, nc)
			tr.close(span)
			if err != nil {
				for _, m := range nodes {
					m.Close()
				}
				return nil, err
			}
			nodes = append(nodes, n)
		}
		return nodes, nil
	}
	return liveWorkload{
		periods: periods,
		// Binding 33 sockets takes about a millisecond, so many samples
		// cost little and steady the median.
		setups: 41,
		setup: func(seed uint64) (time.Duration, error) {
			t0 := time.Now()
			nodes, err := newNodes(config(seed), nil, 0)
			d := time.Since(t0)
			for _, n := range nodes {
				n.Close()
			}
			return d, err
		},
		session: func(ctx context.Context, seed uint64, tr *tracer, parent int) (liveSession, error) {
			nodes, err := newNodes(config(seed), tr, parent)
			if err != nil {
				return liveSession{}, err
			}
			return measureSession(periods, func() ([]livenet.Stats, error) {
				stats := make([]livenet.Stats, len(nodes))
				errs := make([]error, len(nodes))
				spans := make([][2]time.Time, len(nodes))
				var wg sync.WaitGroup
				for i, n := range nodes {
					wg.Add(1)
					go func() {
						defer wg.Done()
						spans[i][0] = time.Now()
						stats[i], errs[i] = n.Run(ctx, periods)
						spans[i][1] = time.Now()
					}()
				}
				wg.Wait()
				for i := range nodes {
					tr.record("livenet.Node.Run", parent, spans[i][0], spans[i][1])
				}
				for i, err := range errs {
					if err != nil {
						return stats, fmt.Errorf("node %d: %v", i, err)
					}
				}
				return stats, nil
			})
		},
		checks: func(res *result, sessions []liveSession) {
			t, _ := totals(sessions)
			ok := true
			for _, s := range sessions {
				if len(s.stats) != peers+1 || s.stats[0].Periods != periods {
					ok = false
				}
				for _, st := range s.stats[1:] {
					if st.Periods < periods*3/4 {
						ok = false
					}
				}
			}
			res.check("live.udp_nodes", ok, "%d nodes per session; the source ran %d periods, every receiver joined in the first quarter", peers+1, periods)
			res.check("live.shaper_dropped", t.ShapeDropped > 0, "shaper dropped %d datagrams", t.ShapeDropped)
			res.check("live.udptransport_dropped", t.TransportDropped == 0, "transport shed %d datagrams", t.TransportDropped)
		},
		layers: func(e *env, res *result) {
			codecLayers(e, res, config(deriveSeed(e.seed, 0xc0dec)), shapeSeed)
		},
	}
}

// msgKinds is how many message kinds the wire format carries; the codec
// check confirms that the next kind is rejected, so the mix below covers
// every kind.
const msgKinds = 7

// Message kinds in livenet's wire numbering.
const (
	kindMap livenet.MsgKind = iota
	kindRequest
	kindData
	kindRescueReq
	kindConnect
	kindConnectOK
	kindBye
)

// messageMix generates one peer's traffic over the given number of
// periods at the session's buffer size and rate: a buffer map with
// membership gossip to each neighbour, a pull request and a data grant
// per segment, a rescue request, and the occasional connect, connect-ok
// and bye.
func messageMix(rng *sim.RNG, cfg livenet.Config, periods int) []livenet.Message {
	words := (cfg.BufferSegments + 63) / 64
	newMap := func(lo segment.ID) *buffer.Map {
		m := &buffer.Map{Lo: lo, Bits: make([]uint64, words), Size: cfg.BufferSegments}
		for i := range m.Bits {
			m.Bits[i] = rng.Uint64()
		}
		if tail := cfg.BufferSegments % 64; tail != 0 {
			m.Bits[words-1] &= 1<<tail - 1
		}
		return m
	}
	gossip := func() ([]int, []string) {
		n := 2 + rng.Intn(cfg.Neighbors)
		ids, addrs := make([]int, n), make([]string, n)
		for i := range ids {
			ids[i] = 1 + rng.Intn(cfg.Peers)
			addrs[i] = fmt.Sprintf("127.0.0.1:%d", 20000+rng.Intn(40000))
		}
		return ids, addrs
	}
	var mix []livenet.Message
	for p := 0; p < periods; p++ {
		lo := segment.ID(p * cfg.Rate)
		from := 1 + rng.Intn(cfg.Peers)
		for i := 0; i < cfg.Neighbors; i++ {
			ids, addrs := gossip()
			mix = append(mix, livenet.Message{From: from, Kind: kindMap, Map: newMap(lo), Gossip: ids, GossipAddrs: addrs, Period: p})
		}
		for i := 0; i < cfg.Rate; i++ {
			seg := lo + segment.ID(rng.Intn(cfg.BufferSegments))
			mix = append(mix,
				livenet.Message{From: from, Kind: kindRequest, Seg: seg, Deadline: sim.Time(p + 1 + rng.Intn(8)), Period: p},
				livenet.Message{From: from, Kind: kindData, Seg: seg, Hop: rng.Intn(3), Period: p})
		}
		mix = append(mix, livenet.Message{From: from, Kind: kindRescueReq, Seg: lo, Period: p},
			livenet.Message{From: from, Kind: kindData, Seg: lo, Rescue: true, Period: p})
		if p%8 == 0 {
			ids, addrs := gossip()
			mix = append(mix,
				livenet.Message{From: from, Kind: kindConnect},
				livenet.Message{From: 0, Kind: kindConnectOK, Map: newMap(lo), Gossip: ids, GossipAddrs: addrs, Deadline: sim.Time(p), Period: p},
				livenet.Message{From: from, Kind: kindBye, Period: p})
		}
	}
	return mix
}

// codecPasses is how many timed passes over the message mix the codec and
// shaper timings take the median of.
const codecPasses = 15

// codecLayers times the wire codec and the traffic shaper on a
// seed-generated message mix and checks that every frame round-trips.
func codecLayers(e *env, res *result, cfg livenet.Config, shapeSeed uint64) {
	span := e.tr.open("codec", 0)
	defer e.tr.close(span)
	mix := messageMix(sim.DeriveRNG(e.seed, 0x3a9), cfg, 64)
	frames := make([][]byte, len(mix))
	kinds := map[livenet.MsgKind]bool{}
	bytesTotal := 0
	roundTrip := true
	for i, m := range mix {
		f, err := livenet.EncodeMessage(m)
		if err != nil {
			res.check("wire.encode", false, "message %d (kind %d): %v", i, m.Kind, err)
			return
		}
		frames[i] = f
		bytesTotal += len(f)
		kinds[m.Kind] = true
		d, err := livenet.DecodeMessage(f)
		if err != nil {
			roundTrip = false
			continue
		}
		again, err := livenet.EncodeMessage(d)
		if err != nil || !bytes.Equal(again, f) {
			roundTrip = false
		}
	}
	res.attempted += len(mix)
	_, beyond := livenet.EncodeMessage(livenet.Message{Kind: msgKinds})
	res.check("wire.every_kind", len(kinds) == msgKinds && beyond != nil, "%d kinds in the mix; kind %d rejected: %v", len(kinds), msgKinds, beyond != nil)
	res.check("wire.round_trip", roundTrip, "%d frames decode and re-encode to the same bytes", len(frames))

	timed := func(name string, fn func()) []float64 {
		var per []float64
		for p := 0; p < codecPasses; p++ {
			s := e.tr.open(name, span)
			t0 := time.Now()
			fn()
			per = append(per, float64(time.Since(t0).Nanoseconds())/float64(len(mix)))
			e.tr.close(s)
		}
		return per
	}
	enc := timed("wire.encode", func() {
		for _, m := range mix {
			if _, err := livenet.EncodeMessage(m); err != nil {
				panic(err)
			}
		}
	})
	dec := timed("wire.decode", func() {
		for _, f := range frames {
			if _, err := livenet.DecodeMessage(f); err != nil {
				panic(err)
			}
		}
	})
	res.add("wire.encode_ns", "ns", median(enc), codecPasses)
	res.add("wire.decode_ns", "ns", median(dec), codecPasses)
	res.add("wire.bytes", "B", float64(bytesTotal)/float64(len(mix)), len(mix))

	// The shaper sees the mix as one node's egress to its neighbours at
	// the session's message rate.
	profile, err := livenet.ParseShapeProfile(udpShape)
	if err != nil {
		res.check("shaper.profile", false, "%v", err)
		return
	}
	sh := livenet.NewShaper(profile, shapeSeed, 0)
	step := livePeriod / time.Duration(max(len(mix)/64, 1))
	var now time.Duration
	calls, drops := 0, 0
	shape := timed("shaper.Shape", func() {
		for i, f := range frames {
			if sh.Shape(1+i%cfg.Peers, len(f), now).Drop {
				drops++
			}
			now += step
			calls++
		}
	})
	res.add("shaper.shape_ns", "ns", median(shape), codecPasses)
	loss := ratio(float64(drops), float64(calls))
	res.check("shaper.loss_rate", loss > 0.01 && loss < 0.03, "%.4f of %d datagrams dropped under %s", loss, calls, udpShape)
}
