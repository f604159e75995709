package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/apps/mongoose"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/tcprep"
	"repro/internal/tcpstack"
)

// web load: open-loop Poisson arrivals, one fresh connection per request
// as ab opens them. The clients are independent users, so a slow server
// does not slow the offered load; each request is timed from when it was
// due.
const (
	webRate     = 1000.0 // requests per virtual second
	webStart    = sim.Time(10 * time.Millisecond)
	webWindow   = sim.Time(2 * time.Second) // arrivals are due in [webStart, webWindow)
	webRamp     = sim.Time(500 * time.Millisecond)
	webDeadline = webWindow + sim.Time(5*time.Second)
)

var webRequest = []byte("GET /page HTTP/1.1\r\nHost: server\r\n\r\n")

// webPage is the response the benchmark expects for mongoose's page of n
// body bytes, written from the served format rather than taken from the
// server, so a server that corrupts its page fails the check.
func webPage(n int) []byte {
	var b bytes.Buffer
	b.WriteString("HTTP/1.1 200 OK\r\nContent-Length: " + strconv.Itoa(n) + "\r\n\r\n")
	for i := 0; i < n; i++ {
		b.WriteByte(byte('A' + i%26))
	}
	return b.Bytes()
}

// webArrivals draws the Poisson schedule from the workload seed: a
// Poisson process conditioned on its count is that many independent
// uniform instants, so every seed offers exactly the same load.
func webArrivals(seed int64) []sim.Time {
	rng := rand.New(rand.NewSource(seed))
	n := int(webRate * (webWindow - webStart).Seconds())
	due := make([]sim.Time, n)
	for i := range due {
		due[i] = webStart + sim.Time(rng.Int63n(int64(webWindow-webStart)))
	}
	sortTimes(due)
	return due
}

// webReq is one request's client-side record (virtual times).
type webReq struct {
	due, start, connected, sent, firstByte, lastByte sim.Time
	done, ok                                         bool
}

// webClient is the benchmark's open-loop load generator: a generator task
// wakes at each due time and starts a request task, which connects,
// sends, reads the whole response and checks every byte.
type webClient struct {
	reqs []webReq
	page []byte
}

func (wc *webClient) start(client *core.Client, port int) {
	client.Kernel.Spawn("gen", func(t *kernel.Task) {
		for i := range wc.reqs {
			if d := wc.reqs[i].due - t.Now(); d > 0 {
				t.Sleep(time.Duration(d))
			}
			rq := &wc.reqs[i]
			client.Kernel.Spawn("req", func(rt *kernel.Task) { wc.request(rt, client, port, rq) })
		}
	})
}

func (wc *webClient) request(t *kernel.Task, client *core.Client, port int, rq *webReq) {
	defer func() { rq.done = true }()
	rq.start = t.Now()
	c, err := client.Stack.Connect(t, client.ServerAddr(port))
	if err != nil {
		return
	}
	defer func() { _ = c.Close(t) }()
	rq.connected = t.Now()
	if _, err := c.Send(t, webRequest); err != nil {
		return
	}
	rq.sent = t.Now()
	got := 0
	for got < len(wc.page) {
		data, err := c.Recv(t, 64<<10)
		if errors.Is(err, tcpstack.EOF) {
			break
		}
		if err != nil {
			return
		}
		if got == 0 {
			rq.firstByte = t.Now()
		}
		if got+len(data) > len(wc.page) || !bytes.Equal(data, wc.page[got:got+len(data)]) {
			return
		}
		got += len(data)
	}
	if got == len(wc.page) {
		rq.lastByte = t.Now()
		rq.ok = true
	}
}

func (wc *webClient) pending() bool {
	for i := range wc.reqs {
		if !wc.reqs[i].done {
			return true
		}
	}
	return false
}

// latencies returns each request's due-to-last-byte latency in ns; a
// failed request counts as infinitely late.
func (wc *webClient) latencies() []float64 {
	out := make([]float64, len(wc.reqs))
	for i, rq := range wc.reqs {
		out[i] = math.Inf(1)
		if rq.ok {
			out[i] = float64(rq.lastByte - rq.due)
		}
	}
	return out
}

func (wc *webClient) completions() []sim.Time {
	var ts []sim.Time
	for _, rq := range wc.reqs {
		if rq.ok {
			ts = append(ts, rq.lastByte)
		}
	}
	sortTimes(ts)
	return ts
}

type webRun struct {
	base       *core.Baseline
	sys        *core.System
	bc, fc     *webClient
	baseServed mongoose.Stats
	ftServed   map[*replication.Namespace]*mongoose.Stats
}

func newWebClient(due []sim.Time, page []byte) *webClient {
	wc := &webClient{reqs: make([]webReq, len(due)), page: page}
	for i, d := range due {
		wc.reqs[i].due = d
	}
	return wc
}

func buildWeb(seed int64, traced bool) (instance, error) {
	mcfg := mongoose.DefaultConfig() // 10 KB page, 100 us CPU per request, 32 workers
	page := webPage(mcfg.PageBytes)
	if len(page) != mongoose.PageSize(mcfg) {
		return nil, fmt.Errorf("web: expected page is %d bytes, server sends %d", len(page), mongoose.PageSize(mcfg))
	}
	due := webArrivals(seed)
	w := &webRun{bc: newWebClient(due, page), fc: newWebClient(due, page),
		ftServed: make(map[*replication.Namespace]*mongoose.Stats)}

	base, err := core.NewBaseline(core.DefaultConfig(seed))
	if err != nil {
		return nil, fmt.Errorf("web baseline: %w", err)
	}
	bclient, err := base.AttachNetwork(simnet.GigabitEthernet())
	if err != nil {
		return nil, fmt.Errorf("web baseline network: %w", err)
	}
	base.NS.Start("mongoose", nil, func(th *replication.Thread) {
		mongoose.Run(th, base.Sockets, mcfg, &w.baseServed)
	})
	w.bc.start(bclient, mcfg.Port)
	w.base = base

	// Independent per-object sections with the AIMD batch controller, the
	// configuration the README documents for this kind of server.
	opts := []core.Option{core.WithSeed(seed), core.WithReplicaSet(2), core.WithDetShards(4),
		core.WithAdaptiveBatching(0)}
	if traced {
		opts = append(opts, core.WithTrace())
	}
	sys, err := core.New(opts...)
	if err != nil {
		return nil, fmt.Errorf("web FT: %w", err)
	}
	fclient, err := sys.AttachNetwork(simnet.GigabitEthernet())
	if err != nil {
		return nil, fmt.Errorf("web FT network: %w", err)
	}
	for _, rep := range sys.ReplicaSet {
		w.ftServed[rep.NS] = &mongoose.Stats{}
	}
	sys.Run(core.App{Name: "mongoose", Main: func(th *replication.Thread, socks *tcprep.Sockets) {
		mongoose.Run(th, socks, mcfg, w.ftServed[th.NS()])
	}})
	w.fc.start(fclient, mcfg.Port)
	w.sys = sys
	return w, nil
}

func (w *webRun) system() *core.System { return w.sys }

func (w *webRun) simulate(c *clock) error {
	if err := c.runWhile(w.base.Sim, webDeadline, w.bc.pending); err != nil {
		return err
	}
	c.attach(w.sys.Sim)
	return c.runWhile(w.sys.Sim, webDeadline, w.fc.pending)
}

func (w *webRun) check() *result {
	n := len(w.fc.reqs)
	r := &result{ops: float64(n)}
	for _, side := range []struct {
		name string
		wc   *webClient
	}{{"baseline", w.bc}, {"FT", w.fc}} {
		bad := 0
		for _, rq := range side.wc.reqs {
			r.digest.add(int64(rq.start), int64(rq.connected), int64(rq.firstByte), int64(rq.lastByte))
			if !rq.ok {
				bad++
			}
		}
		r.attempted += n
		r.failed += bad
		if bad > 0 {
			r.fail("%s: %d of %d requests failed or returned wrong bytes", side.name, bad, n)
		}
	}
	r.checkDivergences(w.sys)

	ftDone, btDone := w.fc.completions(), w.bc.completions()
	ft := rateIn(ftDone, webRamp, webWindow)
	bt := rateIn(btDone, webRamp, webWindow)
	var last sim.Time
	if len(ftDone) > 0 {
		last = ftDone[len(ftDone)-1]
	}
	r.endToEnd(ft, bt, w.fc.latencies(), w.bc.latencies(), last.Sub(webStart).Seconds())

	var connect, ttfb, body, late []float64
	for _, rq := range w.fc.reqs {
		late = append(late, float64(rq.start-rq.due))
		if rq.ok {
			connect = append(connect, float64(rq.connected-rq.start))
			ttfb = append(ttfb, float64(rq.firstByte-rq.sent))
			body = append(body, float64(rq.lastByte-rq.firstByte))
		}
	}
	r.layer("tcpstack.connect_p50_us", us(quantile(connect, 0.5)))
	r.layer("tcpstack.ttfb_p50_us", us(quantile(ttfb, 0.5)))
	r.layer("tcpstack.body_p50_us", us(quantile(body, 0.5)))
	r.layer("web.gen_late_p99_us", us(quantile(late, 0.99)))
	return r
}
