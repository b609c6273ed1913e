// Package nettrans is the Cluster engine: it executes the repository's
// CONGEST algorithms over real TCP connections (loopback) and reports
// Rounds, Messages and per-kind counters bit-identical to the in-process
// simulators, at graph sizes the old one-connection-per-edge demo could
// never reach.
//
// Two ideas make the transport load-bearing instead of a footnote:
//
//   - Multiplexed transport. Vertices are partitioned into contiguous
//     shards; each shard pair shares ONE TCP connection carrying
//     length-prefixed batches of frames tagged with (src, port). The
//     socket count is Shards·(Shards-1)/2 — independent of m — so a
//     10^4- or 10^6-edge graph needs six sockets with the default four
//     shards, where the per-edge transport exhausted the fd table near
//     m ≈ 10^3. The receiver resolves each (src, port) tag to its local
//     (vertex, port) through the shared graph.CSR, so a frame is 41
//     bytes regardless of graph size.
//
//   - Idle-round skipping. Instead of an end-of-round marker on every
//     edge every round (the alpha-synchronizer cost that scales with
//     idle rounds), each batch ends with a calendar announcement: the
//     earliest future round at which the sending shard can be busy —
//     the minimum over its fresh deliveries, its Step targets, its live
//     RecvUntil deadlines (a timer heap, mirroring internal/parsim's
//     calendar), and round+1 if it just sent messages. Every shard
//     takes the minimum of all announcements, so all shards agree on
//     the next busy round and fast-forward to it together. Wire
//     exchanges and wall clock scale with busy rounds only, and the
//     agreed round sequence is exactly the round sequence the lockstep
//     engine plays — which is why Stats.Rounds (and Messages/ByKind,
//     counted on delivery) match the simulators bit for bit.
//
// The same announcement carries each shard's count of still-running
// programs, so termination (total reaches zero) and deadlock (all
// announcements are Forever while programs still run) are agreed on by
// every shard in the same exchange; no separate control plane or FIN
// handshake is needed. Any transport failure — a broken connection, a
// program panic, a bandwidth violation — closes every connection, which
// unwinds all shards and surfaces as an error from Run instead of a
// hang.
package nettrans

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"congestmst/internal/congest"
	"congestmst/internal/graph"
)

// Config parameterizes a cluster run. Bandwidth and MaxRounds have the
// same meaning and defaults as congest.Config.
type Config struct {
	// Bandwidth is b: messages per edge per direction per round.
	// Zero means 1.
	Bandwidth int
	// MaxRounds aborts runs that exceed this many rounds. Zero means
	// 100 million.
	MaxRounds int64
	// Shards is the number of vertex shards. Each shard pair shares one
	// TCP connection, so the run holds Shards·(Shards-1)/2 sockets.
	// Zero means min(4, n); values above n are clamped to n.
	Shards int
	// MaxDials bounds the number of concurrent dials while the shard
	// mesh is established. Zero means 16.
	MaxDials int
	// DialTimeout bounds each connection attempt and its hello
	// exchange, and is the base of the accepting side's wait window.
	// Zero means 10 seconds.
	DialTimeout time.Duration
	// ReadTimeout bounds how long an inbound connection may take to
	// present its hello before the accept path drops it. Zero means
	// DialTimeout.
	ReadTimeout time.Duration
	// MaxDialAttempts bounds how many times one connection (dial or
	// redial after a mid-run fault) is attempted before the link is
	// declared dead with a *PeerError. Zero means 3.
	MaxDialAttempts int
	// RetryBackoff is the base of the jittered exponential backoff
	// between attempts. Zero means 25 milliseconds.
	RetryBackoff time.Duration
	// ChaosCloseAfter, when positive, closes the connection under the
	// N-th successfully written batch — a deterministic fault-injection
	// hook for exercising the reconnect path in tests and smoke runs.
	// Zero (the default) disables it.
	ChaosCloseAfter int64
	// Observer, when non-nil, receives round events (emitted by shard 0
	// with best-effort global active counts, exact cumulative message
	// totals at the final event) and, for congest.ShardObserver /
	// congest.NetObserver implementations, per-shard workload samples
	// and the socket-level transport account when the run ends.
	Observer congest.Observer
}

func (c Config) bandwidth() int {
	if c.Bandwidth <= 0 {
		return 1
	}
	return c.Bandwidth
}

func (c Config) maxRounds() int64 {
	if c.MaxRounds <= 0 {
		return 100_000_000
	}
	return c.MaxRounds
}

func (c Config) shards(n int) int {
	s := c.Shards
	if s <= 0 {
		s = 4
	}
	if s > n {
		s = n
	}
	if s < 1 {
		s = 1
	}
	return s
}

func (c Config) maxDials() int {
	if c.MaxDials <= 0 {
		return 16
	}
	return c.MaxDials
}

func (c Config) dialTimeout() time.Duration {
	if c.DialTimeout <= 0 {
		return 10 * time.Second
	}
	return c.DialTimeout
}

func (c Config) readTimeout() time.Duration {
	if c.ReadTimeout <= 0 {
		return c.dialTimeout()
	}
	return c.ReadTimeout
}

func (c Config) maxDialAttempts() int {
	if c.MaxDialAttempts <= 0 {
		return 3
	}
	return c.MaxDialAttempts
}

func (c Config) retryBackoff() time.Duration {
	if c.RetryBackoff <= 0 {
		return 25 * time.Millisecond
	}
	return c.RetryBackoff
}

// acceptWindow is how long the accepting side of a link waits for the
// peer's (re)dial: the peer's full attempt budget — every dial timeout
// plus every backoff — plus one dial timeout of slack for scheduling
// and hello routing.
func (c Config) acceptWindow() time.Duration {
	attempts := c.maxDialAttempts()
	w := time.Duration(attempts+1) * c.dialTimeout()
	backoff := c.retryBackoff()
	for i := 1; i < attempts; i++ {
		w += backoff + backoff/2
		backoff *= 2
	}
	return w
}

// errAborted unwinds vertex goroutines after a failure; it never
// escapes the package.
var errAborted = errors.New("nettrans: run aborted")

// Run executes program on every vertex of g over the sharded TCP
// cluster and blocks until all programs return (or the run fails). The
// program receives a congest.Context, so any algorithm in this
// repository runs unchanged, and the returned stats are bit-identical
// to the in-process engines'.
func Run(g *graph.Graph, cfg Config, program func(congest.Context)) (*congest.Stats, error) {
	return RunContext(context.Background(), g, cfg, program)
}

// RunContext is Run under a context. Cancellation (or a deadline) is
// observed while the shard mesh is dialing and at every agreed round
// boundary once the run is underway: the whole mesh is torn down, every
// shard loop and vertex goroutine unwinds, and the returned error wraps
// ctx.Err().
func RunContext(ctx context.Context, g *graph.Graph, cfg Config, program func(congest.Context)) (*congest.Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("nettrans: run cancelled: %w", err)
	}
	c := newCluster(g, cfg, nil)
	if err := c.connect(ctx); err != nil {
		c.closeAll()
		return nil, err
	}
	return c.run(ctx, program)
}

type outMsg struct {
	port int32
	msg  congest.Message
}

type yieldRec struct {
	outbox []outMsg
	target int64
	done   bool
}

type wake struct {
	round int64
	msgs  []congest.Inbound
	abort bool
}

// nodeState is the shard-side state of one local vertex. Every field is
// owned by the vertex's shard loop; out is written by the vertex
// goroutine before it signals its yield, which happens-before the shard
// reads it.
type nodeState struct {
	ctx    *Node
	inbox  []congest.Inbound
	out    yieldRec
	queued bool
	parked bool
	done   bool
	target int64
	gen    int64
}

// cluster is one Run: the shard mesh plus shared failure state. In a
// distributed run each worker process holds one cluster hosting its
// local shards (shards[i] is nil for remote shards); the in-process
// engine hosts them all.
type cluster struct {
	g   *graph.Graph
	csr *graph.CSR
	cfg Config

	nshards   int
	shardSize int
	shards    []*shard

	// Placement: addrs[i] is the dialable address of the process
	// hosting shard i (all the local listener in-process), local[i]
	// whether shard i is hosted here, obsShard the lowest local shard
	// (the round-event emitter). runID ties multi-process hellos to
	// this run; remote marks worker mode (the owner feeds inbound
	// connections through Mesh.Accept instead of a local listener).
	addrs    []string
	local    []bool
	obsShard int
	runID    uint64
	remote   bool
	listener net.Listener

	// ctx is the link lifetime: derived from the run context at
	// connect, cancelled at teardown, observed by dials and backoffs.
	ctx    context.Context
	cancel context.CancelFunc

	closed    chan struct{}
	closeOnce sync.Once

	// Socket-level transport counters (always on: one atomic add per
	// wire batch, not per message) plus the shared round-event
	// accumulators the shards feed when an Observer is configured.
	netBytesOut, netBytesIn    atomic.Int64
	netFramesOut, netFramesIn  atomic.Int64
	dials, dialRetries         atomic.Int64
	reconnects, replayedFrames atomic.Int64
	obsActive, obsMessages     atomic.Int64
	chaosLeft                  atomic.Int64

	mu      sync.Mutex
	failErr error
	aborted atomic.Bool
}

// shard owns a contiguous vertex range, one endpoint of the connection
// to every other shard, and the local slice of the synchronizer state.
type shard struct {
	c      *cluster
	id     int
	lo, hi int

	links  []*link // indexed by peer shard id; links[id] is nil
	nodes  []nodeState
	yields chan int

	// ready lists local vertices due at round+1 (fresh deliveries or an
	// explicit Step); timers orders the more distant RecvUntil deadlines.
	ready  []int
	timers congest.Calendar

	round int64
	live  int // local programs still running

	// out[d] stages this round's frames destined to shard d; wbuf is
	// the reused wire-encoding buffer.
	out  [][]wireMsg
	wbuf []byte

	// Per-shard statistics, merged once at the end of the run.
	busyRound int64
	messages  int64
	byKind    [256]int64

	// Observability: delivered-message watermark for per-round deltas,
	// vertex resumptions handled, and (when sampling is armed) the
	// wall-clock this shard spent executing vertices.
	prevMessages int64
	execs        int64
	busyNanos    int64
}

// newCluster builds the shard and link structures for one run without
// touching the network; connect establishes the mesh. topo is nil for
// the in-process engine (every shard local, loopback listener) and set
// for one worker of a distributed run.
func newCluster(g *graph.Graph, cfg Config, topo *Topology) *cluster {
	n := g.N()
	c := &cluster{
		g:      g,
		cfg:    cfg,
		closed: make(chan struct{}),
	}
	c.chaosLeft.Store(cfg.ChaosCloseAfter)
	if n == 0 {
		return c
	}
	c.csr = g.CSR()
	var nShards int
	if topo == nil {
		nShards = cfg.shards(n)
		c.shardSize = (n + nShards - 1) / nShards
		nShards = (n + c.shardSize - 1) / c.shardSize
		c.local = make([]bool, nShards)
		for i := range c.local {
			c.local[i] = true
		}
		c.addrs = make([]string, nShards) // filled when connect listens
	} else {
		nShards = topo.NShards
		c.shardSize = (n + nShards - 1) / nShards
		c.local = topo.Local
		c.addrs = topo.Addrs
		c.runID = topo.RunID
		c.remote = true
	}
	c.nshards = nShards
	c.obsShard = -1
	c.shards = make([]*shard, nShards)
	for i := range c.shards {
		if !c.local[i] {
			continue
		}
		if c.obsShard < 0 {
			c.obsShard = i
		}
		s := &shard{
			c:  c,
			id: i,
			lo: i * c.shardSize,
			hi: min((i+1)*c.shardSize, n),
		}
		s.nodes = make([]nodeState, s.hi-s.lo)
		s.yields = make(chan int, s.hi-s.lo)
		s.links = make([]*link, nShards)
		for j := range s.links {
			if j != i {
				s.links[j] = newLink(c, i, j)
			}
		}
		s.out = make([][]wireMsg, nShards)
		s.live = s.hi - s.lo
		c.shards[i] = s
	}
	return c
}

func (c *cluster) shardOf(v int) int { return v / c.shardSize }

// sockets reports how many TCP connections this process's endpoint of
// the mesh holds: one per shard pair hosted entirely here (counted
// once) plus one per link to a remote shard.
func (c *cluster) sockets() int {
	total := 0
	for _, s := range c.shards {
		if s == nil {
			continue
		}
		for j, l := range s.links {
			if l == nil {
				continue
			}
			if !c.local[j] || j > s.id {
				total++
			}
		}
	}
	return total
}

// netSample snapshots the socket-level account of the run: counters,
// plus the last hello RTT of every dialed connection in (shard, peer)
// order.
func (c *cluster) netSample() congest.NetSample {
	ns := congest.NetSample{
		Sockets:        c.sockets(),
		BytesOut:       c.netBytesOut.Load(),
		BytesIn:        c.netBytesIn.Load(),
		FramesOut:      c.netFramesOut.Load(),
		FramesIn:       c.netFramesIn.Load(),
		Dials:          c.dials.Load(),
		DialRetries:    c.dialRetries.Load(),
		Reconnects:     c.reconnects.Load(),
		ReplayedFrames: c.replayedFrames.Load(),
	}
	for _, s := range c.shards {
		if s == nil {
			continue
		}
		for _, l := range s.links {
			if l == nil || !l.dials() {
				continue
			}
			if rtt := l.rtt(); rtt > 0 {
				ns.RTTs = append(ns.RTTs, congest.PeerRTT{Shard: l.self, Peer: l.peer, Nanos: rtt})
			}
		}
	}
	return ns
}

// chaosMaybe implements Config.ChaosCloseAfter: it closes conn under
// the writer when the configured countdown of successfully written
// batches reaches zero, deterministically exercising the reconnect
// path. No-op (one atomic load) when the hook is disabled.
func (c *cluster) chaosMaybe(conn net.Conn) {
	if c.cfg.ChaosCloseAfter <= 0 {
		return
	}
	if c.chaosLeft.Add(-1) == 0 {
		conn.Close()
	}
}

// closeAll tears down the mesh exactly once — every link, the pending
// re-accepted connections, the listener and the link-lifetime context —
// safe to call from any goroutine (failure propagation closes the whole
// mesh).
func (c *cluster) closeAll() {
	c.closeOnce.Do(func() {
		close(c.closed)
		if c.cancel != nil {
			c.cancel()
		}
		if c.listener != nil {
			c.listener.Close()
		}
		for _, s := range c.shards {
			if s == nil {
				continue
			}
			for _, l := range s.links {
				if l != nil {
					l.close()
				}
			}
		}
	})
}

func (c *cluster) fail(err error) error {
	c.mu.Lock()
	if c.failErr == nil {
		c.failErr = err
	}
	err = c.failErr
	c.mu.Unlock()
	c.aborted.Store(true)
	return err
}

func (c *cluster) err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failErr
}

// run starts the readers, the vertex goroutines and the shard loops,
// and blocks until the cluster terminates, fails, or ctx is cancelled.
func (c *cluster) run(ctx context.Context, program func(congest.Context)) (*congest.Stats, error) {
	defer c.closeAll()
	if c.g.N() == 0 {
		return &congest.Stats{}, nil
	}
	// Cancellation fails the run and drops the mesh: every shard loop
	// notices either the aborted flag at its next round boundary or the
	// closed channel while blocked on a peer batch.
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			c.fail(fmt.Errorf("nettrans: run cancelled: %w", ctx.Err()))
			c.closeAll()
		case <-watchDone:
		}
	}()
	for _, s := range c.shards {
		if s == nil {
			continue
		}
		for _, l := range s.links {
			if l != nil {
				go l.readLoop()
			}
		}
	}
	for _, s := range c.shards {
		if s == nil {
			continue
		}
		for v := s.lo; v < s.hi; v++ {
			nd := &s.nodes[v-s.lo]
			nd.ctx = newNode(s, v)
			// The initial state is "parked at round -1 with target 0":
			// every vertex is in the round-0 wake set, and an abort
			// before its first resume drains it like any parked vertex.
			nd.parked = true
			nd.queued = true
			nd.target = 0
			s.ready = append(s.ready, v)
			go s.runNode(nd, program)
		}
	}
	var wg sync.WaitGroup
	for _, s := range c.shards {
		if s == nil {
			continue
		}
		wg.Add(1)
		go func(s *shard) {
			defer wg.Done()
			s.loop()
		}(s)
	}
	wg.Wait()

	// Local shards only: in worker mode the driver merges workers'
	// stats exactly as this loop merges shards (max of rounds, sum of
	// messages), which is what keeps a distributed run bit-identical.
	stats := &congest.Stats{}
	for _, s := range c.shards {
		if s == nil {
			continue
		}
		if s.busyRound > stats.Rounds {
			stats.Rounds = s.busyRound
		}
		stats.Messages += s.messages
		for k, n := range s.byKind {
			stats.ByKind[k] += n
		}
	}
	if obs := c.cfg.Observer; obs != nil {
		// The final event pins the cumulative total to Stats.Messages:
		// per-round events are best-effort across concurrently-running
		// shards, but the aggregate a trace reports is exact.
		obs.OnRound(congest.RoundEvent{Round: stats.Rounds, Messages: stats.Messages})
		if so, ok := obs.(congest.ShardObserver); ok {
			for _, s := range c.shards {
				if s == nil {
					continue
				}
				so.OnShardSample(congest.ShardSample{
					Shard:     s.id,
					Vertices:  s.hi - s.lo,
					Execs:     s.execs,
					Messages:  s.messages,
					BusyNanos: s.busyNanos,
				})
			}
		}
		if no, ok := obs.(congest.NetObserver); ok {
			no.OnNet(c.netSample())
		}
	}
	return stats, c.err()
}

// loop plays agreed rounds until global termination, failure, deadlock
// or MaxRounds. Every shard executes the identical agreed round
// sequence, which is what keeps the statistics engine-exact.
func (s *shard) loop() {
	c := s.c
	maxRounds := c.cfg.maxRounds()
	obs := c.cfg.Observer
	sample := false
	if obs != nil {
		_, sample = obs.(congest.ShardObserver)
	}
	var prevActive int64
	for {
		if c.aborted.Load() {
			s.abort()
			return
		}
		var roundStart time.Time
		if obs != nil {
			roundStart = time.Now() //lint:allow noclock observer round-wall-clock sampling, off the stats path
		}
		wakes := s.wakeSet()
		if len(wakes) > 0 && s.round > s.busyRound {
			s.busyRound = s.round
		}
		s.execs += int64(len(wakes))
		s.exec(wakes)
		if sample {
			s.busyNanos += time.Since(roundStart).Nanoseconds() //lint:allow noclock shard busy-time sampling, off the stats path
		}
		if c.aborted.Load() { // a local program panicked or violated bandwidth
			s.abort()
			return
		}
		next := s.proposal()
		if err := s.flush(next); err != nil {
			c.fail(err)
			s.abort()
			return
		}
		globalNext := next
		totalLive := s.live
		for j := 0; j < c.nshards; j++ {
			if j == s.id {
				continue
			}
			b, err := s.recvBatch(j)
			if err != nil {
				c.fail(err)
				s.abort()
				return
			}
			if b.next < globalNext {
				globalNext = b.next
			}
			totalLive += int(b.live)
		}
		if obs != nil {
			// Every shard folds its per-round deltas into the shared
			// accumulators; the lowest local shard emits the round event.
			// Peers can run one agreed round ahead of the emitter's read,
			// so Active is a best-effort sample (process-local in worker
			// mode) — the final event in run() pins the cumulative message
			// total exactly.
			c.obsActive.Add(int64(len(wakes)))
			c.obsMessages.Add(s.messages - s.prevMessages)
			s.prevMessages = s.messages
			if s.id == c.obsShard {
				active := c.obsActive.Load()
				obs.OnRound(congest.RoundEvent{
					Round:     s.round,
					Active:    int(active - prevActive),
					Messages:  c.obsMessages.Load(),
					WallNanos: time.Since(roundStart).Nanoseconds(), //lint:allow noclock observer round-wall-clock sampling, off the stats path
				})
				prevActive = active
			}
		}
		switch {
		case totalLive == 0:
			// Agreed by every shard in this same exchange: nothing will
			// ever be sent again, so the mesh can simply be dropped.
			return
		case globalNext == congest.Forever:
			c.fail(fmt.Errorf("nettrans: %w", congest.ErrDeadlock))
			s.abort()
			return
		case globalNext > maxRounds:
			c.fail(fmt.Errorf("nettrans: %w (%d)", congest.ErrMaxRounds, maxRounds))
			s.abort()
			return
		}
		s.round = globalNext
	}
}

// wakeSet collects the local vertices due at the current agreed round:
// the ready list plus every live calendar entry with deadline <= round,
// in ascending vertex order.
func (s *shard) wakeSet() []int {
	due := s.ready
	s.ready = nil
	for s.timers.Len() > 0 && s.timers.Min().Round <= s.round {
		entry := s.timers.Pop()
		nd := &s.nodes[entry.ID-s.lo]
		if nd.done || !nd.parked || nd.queued || nd.gen != entry.Gen {
			continue
		}
		nd.queued = true // guards against double release
		due = append(due, entry.ID)
	}
	sort.Ints(due)
	return due
}

// exec resumes the wake set, waits for every resumed vertex to yield,
// then processes outboxes and park targets in ascending vertex order:
// local messages are delivered in place, remote ones staged per
// destination shard.
func (s *shard) exec(wakes []int) {
	if len(wakes) == 0 {
		return
	}
	for _, v := range wakes {
		nd := &s.nodes[v-s.lo]
		nd.queued = false
		nd.parked = false
		msgs := nd.inbox
		nd.inbox = nil
		if len(msgs) > 1 {
			sort.SliceStable(msgs, func(i, j int) bool { return msgs[i].Port < msgs[j].Port })
		}
		nd.ctx.resume <- wake{round: s.round, msgs: msgs}
	}
	for range wakes {
		<-s.yields
	}
	for _, v := range wakes {
		nd := &s.nodes[v-s.lo]
		y := nd.out
		nd.out = yieldRec{}
		for _, om := range y.outbox {
			s.route(v, om)
		}
		if y.done {
			nd.done = true
			s.live--
			continue
		}
		nd.parked = true
		nd.target = y.target
		nd.gen++
		switch {
		case len(nd.inbox) > 0 || y.target == s.round+1:
			nd.queued = true
			s.ready = append(s.ready, v)
		case y.target < congest.Forever:
			s.timers.Push(congest.TimerEntry{Round: y.target, ID: v, Gen: nd.gen})
		}
	}
}

// route stages one outbound message: delivered immediately if the
// destination vertex is local, otherwise appended to the destination
// shard's wire batch as a (src, port) frame.
func (s *shard) route(v int, om outMsg) {
	pos := s.c.csr.Off[v] + int64(om.port)
	to := int(s.c.csr.To[pos])
	d := s.c.shardOf(to)
	if d == s.id {
		s.deliver(to, int(s.c.csr.PeerPort[pos]), om.msg)
		return
	}
	s.out[d] = append(s.out[d], wireMsg{src: int32(v), port: om.port, msg: om.msg})
}

// deliver appends one message to a local vertex's inbox, counts it, and
// queues the vertex for the next round if it is parked. Deliveries to
// finished vertices still count (exactly as the simulators count them).
func (s *shard) deliver(to, port int, m congest.Message) {
	nd := &s.nodes[to-s.lo]
	nd.inbox = append(nd.inbox, congest.Inbound{Port: port, Msg: m})
	s.messages++
	s.byKind[m.Kind]++
	if nd.parked && !nd.queued && !nd.done {
		nd.queued = true
		s.ready = append(s.ready, to)
	}
}

// proposal computes this shard's announcement: the earliest future
// round at which it can be busy on its own account — round+1 if any
// local vertex is already due or any remote message was just staged
// (its recipient wakes then), else the earliest live calendar entry.
func (s *shard) proposal() int64 {
	next := congest.Forever
	if len(s.ready) > 0 {
		next = s.round + 1
	} else {
		for _, msgs := range s.out {
			if len(msgs) > 0 {
				next = s.round + 1
				break
			}
		}
	}
	for s.timers.Len() > 0 {
		top := s.timers.Min()
		nd := &s.nodes[top.ID-s.lo]
		if nd.done || !nd.parked || nd.queued || nd.gen != top.Gen {
			s.timers.Pop() // stale
			continue
		}
		if top.Round < next {
			next = top.Round
		}
		break
	}
	return next
}

// flush writes one batch to every peer shard: the staged frames, then
// the calendar announcement and live count for this agreed round. A
// broken connection is transparently re-established and the batch
// replayed by the link; only an exhausted retry budget fails the run.
func (s *shard) flush(next int64) error {
	for j := 0; j < s.c.nshards; j++ {
		if j == s.id {
			continue
		}
		s.wbuf = appendBatch(s.wbuf[:0], s.round, next, uint32(s.live), s.out[j])
		if err := s.links[j].send(s.wbuf, int64(len(s.out[j]))); err != nil {
			return fmt.Errorf("nettrans: shard %d write to shard %d: %w", s.id, j, err)
		}
		s.out[j] = s.out[j][:0]
	}
	return nil
}

// recvBatch blocks for peer shard j's batch for the current agreed
// round, ingests its frames, and returns its announcement. Batches for
// past rounds are duplicates replayed by the peer's reconnect path and
// are skipped, which is what makes the at-least-once replay exactly-
// once at ingestion. The mesh closing mid-wait means another shard
// aborted the run.
func (s *shard) recvBatch(j int) (*batch, error) {
	var b *batch
	for {
		select {
		case b = <-s.links[j].batches:
		case <-s.c.closed:
			if err := s.c.err(); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("nettrans: shard %d: mesh closed while waiting for shard %d", s.id, j)
		}
		if b.err != nil {
			return nil, fmt.Errorf("nettrans: shard %d read from shard %d: %w", s.id, j, b.err)
		}
		if b.round < s.round {
			continue // replayed duplicate of an already-ingested round
		}
		break
	}
	if b.round != s.round {
		return nil, fmt.Errorf("nettrans: shard %d: round skew from shard %d: got %d at %d",
			s.id, j, b.round, s.round)
	}
	for _, wm := range b.msgs {
		src := int(wm.src)
		if src < 0 || src >= s.c.g.N() || s.c.shardOf(src) == s.id {
			return nil, fmt.Errorf("nettrans: shard %d: frame from invalid vertex %d", s.id, src)
		}
		pos := s.c.csr.Off[src] + int64(wm.port)
		if wm.port < 0 || pos >= s.c.csr.Off[src+1] {
			return nil, fmt.Errorf("nettrans: shard %d: frame on invalid port %d of vertex %d", s.id, wm.port, src)
		}
		to := int(s.c.csr.To[pos])
		if s.c.shardOf(to) != s.id {
			return nil, fmt.Errorf("nettrans: shard %d: misrouted frame for vertex %d", s.id, to)
		}
		s.deliver(to, int(s.c.csr.PeerPort[pos]), wm.msg)
	}
	return b, nil
}

// abort tears down the mesh (unblocking every other shard) and drains
// the local vertices still waiting on a resume.
func (s *shard) abort() {
	s.c.closeAll()
	resumed := 0
	for i := range s.nodes {
		nd := &s.nodes[i]
		if nd.done || !nd.parked {
			continue
		}
		nd.ctx.resume <- wake{abort: true}
		resumed++
	}
	for i := 0; i < resumed; i++ {
		id := <-s.yields
		s.nodes[id-s.lo].done = true
	}
}

// runNode hosts one vertex goroutine: it resumes for round 0, runs the
// program, and converts returns and panics alike into a final yield.
func (s *shard) runNode(nd *nodeState, program func(congest.Context)) {
	defer func() {
		if r := recover(); r != nil {
			if r != errAborted { //nolint:errorlint // sentinel identity
				s.c.fail(fmt.Errorf("nettrans: processor %d panicked: %v", nd.ctx.id, r))
			}
			nd.out = yieldRec{done: true}
			s.yields <- nd.ctx.id
			return
		}
		nd.out = yieldRec{done: true, outbox: nd.ctx.outbox}
		s.yields <- nd.ctx.id
	}()
	w := <-nd.ctx.resume
	if w.abort {
		panic(errAborted)
	}
	nd.ctx.round = w.round
	program(nd.ctx)
}

// Node implements congest.Context for one cluster vertex. All methods
// must be called only from the program's own goroutine.
type Node struct {
	s     *shard
	id    int
	base  int64 // first arc position of this vertex in the CSR
	deg   int
	round int64

	// outbox/spare double-buffer the per-round sends: the buffer handed
	// over at a yield is fully consumed by the shard before the vertex
	// can run again, so the two buffers alternate without allocation.
	outbox []outMsg
	spare  []outMsg

	resume chan wake

	// sentAt/sentN implement lazy per-round bandwidth accounting
	// without an O(degree) reset every round.
	sentAt []int64
	sentN  []int32
}

var _ congest.Context = (*Node)(nil)

func newNode(s *shard, id int) *Node {
	deg := s.c.csr.Degree(id)
	nd := &Node{
		s:      s,
		id:     id,
		base:   s.c.csr.Off[id],
		deg:    deg,
		resume: make(chan wake, 1),
		sentAt: make([]int64, deg),
		sentN:  make([]int32, deg),
	}
	for p := range nd.sentAt {
		nd.sentAt[p] = -1
	}
	return nd
}

// ID returns the identity of the hosting vertex.
func (nd *Node) ID() int { return nd.id }

// Degree returns the number of ports (incident edges).
func (nd *Node) Degree() int { return nd.deg }

// Weight returns the weight of the edge behind port p.
func (nd *Node) Weight(p int) int64 { return nd.s.c.csr.W[nd.base+int64(p)] }

// Round returns the current round number (starting at 0).
func (nd *Node) Round() int64 { return nd.round }

// Bandwidth returns b, the per-edge per-direction message budget.
func (nd *Node) Bandwidth() int { return nd.s.c.cfg.bandwidth() }

// Send queues m on port p for delivery at the beginning of the next
// round. Sending more than Bandwidth() messages on one port in a
// single round violates the CONGEST model and aborts the run.
func (nd *Node) Send(p int, m congest.Message) {
	if p < 0 || p >= nd.deg {
		nd.s.c.fail(fmt.Errorf("nettrans: processor %d sent on invalid port %d", nd.id, p))
		panic(errAborted)
	}
	if nd.sentAt[p] != nd.round {
		nd.sentAt[p] = nd.round
		nd.sentN[p] = 0
	}
	if int(nd.sentN[p]) >= nd.s.c.cfg.bandwidth() {
		nd.s.c.fail(fmt.Errorf("%w: processor %d port %d round %d (b=%d)",
			congest.ErrBandwidth, nd.id, p, nd.round, nd.s.c.cfg.bandwidth()))
		panic(errAborted)
	}
	nd.sentN[p]++
	nd.outbox = append(nd.outbox, outMsg{port: int32(p), msg: m})
}

// Step ends the current round and resumes at the next one, returning
// the messages delivered then (possibly none), sorted by port.
func (nd *Node) Step() []congest.Inbound { return nd.yield(nd.round + 1) }

// Recv ends the current round and blocks until some future round
// delivers at least one message; it resumes in that round and returns
// the messages.
func (nd *Node) Recv() []congest.Inbound { return nd.yield(congest.Forever) }

// RecvUntil ends the current round and resumes at the earliest round
// r' <= target that delivers a message (returning the messages), or at
// target itself with nil if none arrive. target must exceed the
// current round.
func (nd *Node) RecvUntil(target int64) []congest.Inbound {
	if target <= nd.round {
		nd.s.c.fail(fmt.Errorf("nettrans: processor %d: RecvUntil(%d) at round %d", nd.id, target, nd.round))
		panic(errAborted)
	}
	return nd.yield(target)
}

func (nd *Node) yield(target int64) []congest.Inbound {
	ns := &nd.s.nodes[nd.id-nd.s.lo]
	ns.out = yieldRec{outbox: nd.outbox, target: target}
	nd.outbox, nd.spare = nd.spare[:0], nd.outbox
	nd.s.yields <- nd.id
	w := <-nd.resume
	if w.abort {
		panic(errAborted)
	}
	nd.round = w.round
	return w.msgs
}
