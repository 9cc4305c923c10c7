package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"kdtune/internal/kdtree"
	"kdtune/internal/render"
	"kdtune/internal/scene"
	"kdtune/internal/serve"
	"kdtune/internal/vecmath"
)

// The serve workload's traffic is fixed here, not by flags: an open loop at
// one rate with one mix, answered within one latency limit.
const (
	serveRate     = 6.0 // requests per second, evenly spaced
	serveLimitMS  = 250 // a request slower than this (from its due time) is not ok
	serveW        = 160
	serveH        = 120
	servePacket   = 4
	serveDeadline = "2000"
)

// serveMix is the request mix as a deck of 20 requests, in the proportions
// of the repository's soak driver (serve.RunSoak: 50% render, 20% build,
// 15% range, 15% nn): hot-set renders, invalidate then render of the same
// key (the rebuild path, in place of the soak's build), range queries and
// nn queries. The generator deals seeded shuffles of the deck and schedules
// whole decks, so every measurement holds exactly this mix.
var serveMix = []struct {
	kind string
	n    int
}{{"render", 10}, {"rebuild", 4}, {"range", 3}, {"nn", 3}}

// deck deals its cards in a fresh seeded shuffle each pass, so a short
// stretch of requests already has the deck's proportions.
type deck struct {
	cards []int
	pos   int
}

func (d *deck) next(rng *rand.Rand) int {
	if d.pos == 0 {
		rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
	}
	c := d.cards[d.pos]
	d.pos = (d.pos + 1) % len(d.cards)
	return c
}

// serveHot is the fixed hot set: frames per scene. The key set stays
// bounded because the server's tree cache never evicts.
var serveHot = []struct {
	scene  string
	frames []int
}{{"WoodDoll", []int{0, 14}}, {"Toasters", []int{0, 40, 80, 120, 160, 200}}}

// hotKey is one (scene, frame) of the hot set with its offline checksum.
type hotKey struct {
	scene  string
	frame  int
	bounds vecmath.AABB
	want   uint64 // checksum of BuildGuarded + RenderInto computed in set-up
}

// serveState is an in-process kdserve over loopback HTTP and a client with
// at most NumCPU connections.
type serveState struct {
	o      options
	hot    []hotKey
	srv    *http.Server
	base   string
	client *http.Client
	done   chan struct{} // closed when the server's Serve returns
	rng    *rand.Rand    // the request schedule, continued across measurements
	kinds  deck          // indexes into serveMix
	keys   []deck        // per kind: indexes into hot
	log    io.Writer
}

func setupServe(o options, log io.Writer) (state, error) {
	return newServe(o, nil, 0, log)
}

// newServe starts the server with its default configuration over the hot
// set's scenes, computes the checksums of the hot frames offline (only the
// first hotPer of each scene when hotPer > 0) and warms the cache with one render of every hot key.
func newServe(o options, tr *tracer, hotPer int, log io.Writer) (*serveState, error) {
	var scenes []*scene.Scene
	var hot []hotKey
	b := kdtree.NewBuilder()
	im := render.NewImage(serveW, serveH)
	for _, h := range serveHot {
		sc, err := loadScene(tr, nil, h.scene)
		if err != nil {
			return nil, err
		}
		scenes = append(scenes, sc)
		frames := h.frames
		if hotPer > 0 {
			frames = frames[:hotPer]
		}
		for _, f := range frames {
			tris := sc.Triangles(f)
			tree, _, err := build(tr, 0, b, tris, kdtree.AlgoInPlace, ncpu)
			if err != nil {
				return nil, err
			}
			_, _, sum := renderFrame(tr, 0, im, tree, sc.ViewAt(f), sc.Lights, render.Options{
				Width: serveW, Height: serveH, Workers: ncpu, PacketWidth: servePacket,
			})
			bounds := vecmath.EmptyAABB()
			for _, t := range tris {
				bounds = bounds.Union(t.Bounds())
			}
			hot = append(hot, hotKey{scene: h.scene, frame: f, bounds: bounds, want: sum})
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &serveState{
		o: o, hot: hot, base: "http://" + ln.Addr().String(), done: make(chan struct{}),
		rng: rand.New(rand.NewSource(o.seed)), keys: make([]deck, len(serveMix)), log: log,
		srv: &http.Server{Handler: serve.New(serve.Config{Scenes: scenes}).Handler()},
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: ncpu, MaxIdleConnsPerHost: ncpu, DisableCompression: true,
		}},
	}
	for i, m := range serveMix {
		for j := 0; j < m.n; j++ {
			s.kinds.cards = append(s.kinds.cards, i)
		}
		for j := range hot {
			s.keys[i].cards = append(s.keys[i].cards, j)
		}
	}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	// Warm-up: render every hot key, invalidate it and render it again, so
	// each cache entry already holds a current and a stale generation — the
	// steady state the measured rebuild path keeps it in.
	for _, k := range hot {
		err := s.get(0, "/render", k.renderQuery(), nil)
		if err == nil {
			err = s.get(0, "/invalidate", k.query(), nil)
		}
		if err == nil {
			err = s.get(0, "/render", k.renderQuery(), nil)
		}
		if err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up %s/%d: %w", k.scene, k.frame, err)
		}
	}
	return s, nil
}

func (s *serveState) probeScene() string { return "Toasters" }

func (s *serveState) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		_ = s.srv.Close()
	}
	<-s.done
	s.client.CloseIdleConnections()
}

func (k hotKey) query() url.Values {
	return url.Values{"scene": {k.scene}, "frame": {strconv.Itoa(k.frame)}}
}

func (k hotKey) renderQuery() url.Values {
	q := k.query()
	q.Set("width", strconv.Itoa(serveW))
	q.Set("height", strconv.Itoa(serveH))
	q.Set("packet", strconv.Itoa(servePacket))
	return q
}

// get sends one request as tenant c<conn> (the client worker) and decodes
// a 200 body into out.
func (s *serveState) get(conn int, path string, q url.Values, out any) error {
	req, err := http.NewRequest("GET", s.base+path+"?"+q.Encode(), nil)
	if err != nil {
		return err
	}
	req.Header.Set("X-Tenant", fmt.Sprintf("c%d", conn))
	req.Header.Set("X-Deadline-Ms", serveDeadline)
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != 200 {
		return fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, body)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(body, out)
}

// request is one scheduled operation of the open loop.
type request struct {
	due  time.Duration // from the start of the loop
	kind string
	key  int
	x    [3]float64 // nn point, or range box centre
}

// schedule lays out whole decks of requests at the fixed rate, as many as
// cover d (at least one); the seeded generator picks each request's kind,
// key and point.
func (s *serveState) schedule(d time.Duration) []request {
	n := len(s.kinds.cards) * max(1, int(math.Ceil(d.Seconds()*serveRate/float64(len(s.kinds.cards)))))
	reqs := make([]request, n)
	for i := range reqs {
		kind := s.kinds.next(s.rng)
		r := request{due: time.Duration(float64(i+1) / serveRate * float64(time.Second)), kind: serveMix[kind].kind, key: s.keys[kind].next(s.rng)}
		b := s.hot[r.key].bounds
		for a := 0; a < 3; a++ {
			lo, hi := b.Min.Axis(vecmath.Axis(a)), b.Max.Axis(vecmath.Axis(a))
			r.x[a] = lo + s.rng.Float64()*(hi-lo)
		}
		reqs[i] = r
	}
	return reqs
}

// serveRun is what one open-loop measurement observed.
type serveRun struct {
	mu      sync.Mutex
	lat     map[int]float64 // op -> ms from its due time
	ncalls  map[int]int     // op -> HTTP requests it made
	calls   [][]int         // per client worker: the op of each HTTP request, in send order
	kinds   map[string][]float64
	renders []float64 // response render_ns, ms
	builds  []float64 // response build_ns: build time of the tree each render used, ms
	lag     []float64 // generator lateness, ms
}

// measure runs the open loop for d: the generator releases each request at
// its due time into a queue served by NumCPU client workers, each sending
// one request at a time over its own connection; a request due while every
// worker is busy waits in the queue, and that wait counts in its latency.
func (s *serveState) measure(d time.Duration, tr *tracer, lo *layerObs) *opLog {
	ops := newOpLog(s.log)
	reqs := s.schedule(d)
	var before serve.Snapshot
	if lo != nil {
		before = s.metrics()
	}
	run := &serveRun{
		lat: map[int]float64{}, ncalls: map[int]int{},
		calls: make([][]int, ncpu), kinds: map[string][]float64{},
	}

	queue := make(chan int, len(reqs)) // sized to the schedule: the generator never blocks
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < ncpu; c++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			for i := range queue {
				s.do(conn, i, reqs[i], start, tr, ops, run)
			}
		}(c)
	}
	for i, r := range reqs {
		due := start.Add(r.due)
		time.Sleep(time.Until(due))
		run.lag = append(run.lag, ms(time.Since(due)))
		queue <- i
	}
	close(queue)
	wg.Wait()

	if lo != nil {
		s.layerMetrics(lo, run, before)
	}
	return ops
}

// do performs one scheduled operation on client worker conn.
func (s *serveState) do(conn, i int, r request, start time.Time, tr *tracer, ops *opLog, run *serveRun) {
	due := start.Add(r.due)
	k := s.hot[r.key]
	var id int64
	if tr != nil {
		id = tr.next.Add(1)
	}
	timed := func(path string, q url.Values, out any) error {
		var err error
		tr.do(id, "serve", "GET "+path, func(int64) { err = s.get(conn, path, q, out) })
		run.mu.Lock()
		run.calls[conn] = append(run.calls[conn], i)
		run.ncalls[i]++
		run.mu.Unlock()
		return err
	}
	var rr serve.RenderResponse
	var err error
	switch r.kind {
	case "render":
		err = timed("/render", k.renderQuery(), &rr)
	case "rebuild":
		if err = timed("/invalidate", k.query(), nil); err == nil {
			err = timed("/render", k.renderQuery(), &rr)
		}
	case "range":
		h := k.bounds.Diagonal().Len() * 0.05
		q := k.query()
		for a, n := range []string{"x", "y", "z"} {
			q.Set("min"+n, strconv.FormatFloat(r.x[a]-h, 'g', -1, 64))
			q.Set("max"+n, strconv.FormatFloat(r.x[a]+h, 'g', -1, 64))
		}
		var out serve.RangeResponse
		err = timed("/range", q, &out)
		rr.Degraded = out.Degraded
	case "nn":
		q := k.query()
		for a, n := range []string{"x", "y", "z"} {
			q.Set(n, strconv.FormatFloat(r.x[a], 'g', -1, 64))
		}
		var out serve.NNResponse
		err = timed("/nn", q, &out)
		rr.Degraded = out.Degraded
	}
	end := time.Now()
	tr.record(id, 0, "bench", fmt.Sprintf("request %s %s/%d", r.kind, k.scene, k.frame), due, end)
	if err != nil {
		ops.fail("%s %s/%d: %v", r.kind, k.scene, k.frame, err)
		return
	}
	lat := ms(end.Sub(due))
	if rr.Checksum != "" && rr.Degraded == "" && rr.Checksum != fmt.Sprintf("%016x", expect(s.o, k.want)) {
		ops.wrong("%s %s/%d: served checksum %s, offline %016x", r.kind, k.scene, k.frame, rr.Checksum, k.want)
		return
	}
	ops.done("request", lat, rr.Degraded == "" && lat <= serveLimitMS)
	run.mu.Lock()
	defer run.mu.Unlock()
	run.lat[i] = lat
	run.kinds[r.kind] = append(run.kinds[r.kind], lat)
	if rr.Checksum != "" {
		run.renders = append(run.renders, float64(rr.RenderNS)/1e6)
		run.builds = append(run.builds, float64(rr.BuildNS)/1e6)
	}
}

func (s *serveState) metrics() serve.Snapshot {
	var snap serve.Snapshot
	if err := s.get(0, "/metrics", nil, &snap); err != nil {
		fmt.Fprintln(s.log, "perfbench: /metrics:", err)
	}
	return snap
}

// layerMetrics adds the serve layer's metrics: server-side time from the
// request log, paired per connection with the client's view, and the
// counters of /metrics over the measurement.
func (s *serveState) layerMetrics(lo *layerObs, run *serveRun, before serve.Snapshot) {
	after := s.metrics()
	var recs []serve.LogRecord
	if err := s.get(0, "/log", url.Values{"n": {"100000"}}, &recs); err != nil {
		fmt.Fprintln(s.log, "perfbench: /log:", err)
	}
	// Each client worker sends one request at a time under its own tenant,
	// so its log records are in the order of its calls: pair them from the
	// end (the ring log keeps only the most recent records).
	serverNS := map[int]int64{} // op -> server time of its calls
	opCalls := map[int]int{}
	var server []float64
	for conn, calls := range run.calls {
		var mine []serve.LogRecord
		for _, r := range recs {
			if r.Tenant == fmt.Sprintf("c%d", conn) {
				mine = append(mine, r)
			}
		}
		for j := 1; j <= len(calls) && j <= len(mine); j++ {
			op, r := calls[len(calls)-j], mine[len(mine)-j]
			serverNS[op] += r.NS
			opCalls[op]++
			server = append(server, float64(r.NS)/1e6)
		}
	}
	lo.add("serve.server_ms.p50", "ms", quantile(server, 0.5))
	lo.add("serve.server_ms.p99", "ms", quantile(server, 0.99))
	// Wait: the part of an operation's latency outside the server — client
	// queueing behind busy connections, transport and HTTP framing.
	var waits []float64
	for op, lat := range run.lat {
		if n := run.ncalls[op]; n > 0 && opCalls[op] == n {
			waits = append(waits, lat-float64(serverNS[op])/1e6)
		}
	}
	lo.add("serve.wait_ms", "ms", median(waits))
	lo.add("serve.render_ms", "ms", median(run.renders))
	lo.add("serve.build_ms", "ms", median(run.builds))
	lo.add("serve.range_ms", "ms", median(run.kinds["range"]))
	lo.add("serve.nn_ms", "ms", median(run.kinds["nn"]))
	lo.add("serve.sched_lag_p99_ms", "ms", quantile(run.lag, 0.99))
	hits := after.CacheHits - before.CacheHits
	misses := after.CacheMisses - before.CacheMisses
	lo.add("serve.cache_hit_ratio", "ratio", float64(hits)/math.Max(float64(hits+misses), 1))
	lo.add("serve.shed", "count", float64(after.Shed429-before.Shed429+after.ShedBreaker-before.ShedBreaker))
	lo.add("serve.timeouts", "count", float64(after.Timeouts-before.Timeouts))
	lo.add("serve.degraded", "count", float64(after.DegradedStale-before.DegradedStale+
		after.DegradedFallback-before.DegradedFallback+after.DegradedLowres-before.DegradedLowres))
	lo.add("serve.builds_aborted", "count", float64(after.BuildsAborted-before.BuildsAborted))
}
