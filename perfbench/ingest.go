package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/prog"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/workloads"
	"repro/structslim"
)

// The ingest workload replays one recorded art sample stream, the way
// `structslim push` sends it: four replica sessions per profiled thread,
// batches of 256 samples, eight batches per binary request, over two
// connections. Period 53 makes the stream dense (~27k samples a session).
const (
	ingestProgram  = "art"
	ingestPeriod   = 53
	ingestReplicas = 4
	ingestBatch    = 256
	ingestWindow   = 8
	ingestConns    = 2
	ingestShards   = 8
)

// request is one pre-encoded POST body.
type request struct {
	body    []byte
	samples int
	batches []stream.Batch // decoded form, for the layer probe
}

// ingestPath pushes the stream into a fresh analyzer and server each
// round, then reads /v1/report and /v1/advice/{obj}.
type ingestPath struct {
	seed     uint64
	prog     *prog.Program
	sessions [][]request // per session, in send order
	samples  int         // per round
	batches  int         // per session, the largest
	want     []byte      // local core.Analyze of the same samples
	obj      string      // the hot record advice is asked for
	advice   []byte      // first round's advice body

	handler atomic.Pointer[http.Handler]
	hs      *http.Server
	served  chan error
	client  *http.Client
	base    string

	pl               passLog
	overhead         float64   // of the recorded run, from the local report
	postMs, reportMs []float64 // untraced rounds
	pushS            []float64 // untraced rounds' push phases
	posts, rejected  int
}

func (ip *ingestPath) setup() error {
	w, err := workloads.Get(ingestProgram)
	if err != nil {
		return err
	}
	p, phases, err := w.Build(nil, scale)
	if err != nil {
		return err
	}
	ip.prog = p
	res, err := structslim.ProfileRun(p, phases, structslim.Options{SamplePeriod: ingestPeriod, Seed: ip.seed})
	if err != nil {
		return err
	}
	var tps []*profile.ThreadProfile
	for r := 0; r < ingestReplicas; r++ {
		for _, tp := range res.ThreadProfiles {
			tps = append(tps, tp)
			reqs, n := encodeSession(fmt.Sprintf("bench-r%02d-t%03d", r, tp.TID), tp)
			ip.sessions = append(ip.sessions, reqs)
			ip.samples += n
		}
	}
	for _, reqs := range ip.sessions {
		nb := 0
		for _, rq := range reqs {
			nb += len(rq.batches)
		}
		ip.batches = max(ip.batches, nb)
	}
	merged, err := profile.ReduceThreadProfiles(tps, 0)
	if err != nil {
		return err
	}
	rep, err := core.Analyze(merged, p, core.Options{})
	if err != nil {
		return err
	}
	if sr := structslim.FindStruct(rep, w.Record().Name); sr != nil {
		ip.obj = sr.Name
	} else {
		return fmt.Errorf("no analyzed structure for record %s", w.Record().Name)
	}
	var buf bytes.Buffer
	rep.RenderText(&buf)
	ip.want = buf.Bytes()
	ip.overhead = rep.OverheadPct

	if err := ip.listen(); err != nil {
		return err
	}
	// Warm-up round: its advice body is the reference for later rounds.
	return ip.round(nil, false)
}

// encodeSession splits one thread's samples into batches (object table on
// the first, cycle accounts on the last) and frames them into requests.
func encodeSession(session string, tp *profile.ThreadProfile) ([]request, int) {
	var batches []stream.Batch
	n := len(tp.Samples)
	for start, seq := 0, uint64(0); start < n || start == 0; start, seq = start+ingestBatch, seq+1 {
		end := min(start+ingestBatch, n)
		b := stream.Batch{
			Session: session, Process: "bench", TID: int32(tp.TID), Period: tp.Period,
			Seq: seq, Samples: tp.Samples[start:end],
		}
		if start == 0 {
			b.Objects = tp.Objects
		}
		if end == n {
			b.AppCycles, b.OverheadCycles, b.MemOps = tp.AppCycles, tp.OverheadCycles, tp.MemOps
		}
		batches = append(batches, b)
		if end == n {
			break
		}
	}
	var reqs []request
	for start := 0; start < len(batches); start += ingestWindow {
		end := min(start+ingestWindow, len(batches))
		rq := request{batches: batches[start:end]}
		for i := range rq.batches {
			rq.body = server.AppendBatchBinary(rq.body, &rq.batches[i])
			rq.samples += len(rq.batches[i].Samples)
		}
		reqs = append(reqs, rq)
	}
	return reqs, n
}

// listen starts one loopback HTTP server whose handler each round swaps
// for a fresh server.Server.
func (ip *ingestPath) listen() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ip.base = "http://" + ln.Addr().String()
	ip.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*ip.handler.Load()).ServeHTTP(w, r)
	})}
	ip.served = make(chan error, 1)
	go func() { ip.served <- ip.hs.Serve(ln) }()
	ip.client = &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     ingestConns,
			MaxIdleConnsPerHost: ingestConns,
		},
	}
	return nil
}

func (ip *ingestPath) pass(tr *tracer) error { return ip.round(tr, true) }

// round pushes every request, flushes, and reads the report and advice.
// Building the fresh analyzer and server, and draining it, stay outside
// the timed span.
func (ip *ingestPath) round(tr *tracer, record bool) error {
	an, err := stream.New(ip.prog, stream.Config{Shards: ingestShards})
	if err != nil {
		return err
	}
	// The queue holds a whole session, so a round never sees a 429 from
	// a server that is merely behind.
	srv := server.New(an, server.Config{QueueDepth: ip.batches})
	h := srv.Handler()
	ip.handler.Store(&h)
	defer srv.Drain()

	op := tr.newOp()
	t0 := time.Now()
	root := tr.begin("ingest.round", 0, op)
	push := tr.begin("ingest.push", root, op)
	lat := make([][]float64, ingestConns)
	errs := make([][]error, ingestConns) // one entry per POST
	acked := make([]int, ingestConns)
	rejected := make([]int, ingestConns)
	var wg sync.WaitGroup
	for c := 0; c < ingestConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Connection c sends its sessions' requests round-robin; each
			// session's requests stay in order.
			var mine [][]request
			for s := c; s < len(ip.sessions); s += ingestConns {
				mine = append(mine, ip.sessions[s])
			}
			for k, sent := 0, true; sent; k++ {
				sent = false
				for _, reqs := range mine {
					if k >= len(reqs) {
						continue
					}
					sent = true
					sp := tr.begin("ingest.post", push, op)
					t := time.Now()
					code, _, err := ip.do(http.MethodPost, "/v1/samples", reqs[k].body)
					lat[c] = append(lat[c], float64(time.Since(t).Nanoseconds())/1e6)
					tr.end(sp)
					if code == http.StatusTooManyRequests {
						rejected[c]++
					}
					if err == nil && code != http.StatusAccepted {
						err = fmt.Errorf("POST /v1/samples: status %d", code)
					}
					if err == nil {
						acked[c] += reqs[k].samples
					}
					errs[c] = append(errs[c], err)
				}
			}
		}(c)
	}
	wg.Wait()
	sp := tr.begin("ingest.flush", push, op)
	code, _, err := ip.do(http.MethodPost, "/v1/flush", nil)
	tr.end(sp)
	tr.end(push)
	pushTime := time.Since(t0)
	if err == nil && code != http.StatusNoContent {
		err = fmt.Errorf("POST /v1/flush: status %d", code)
	}
	opDone(err)
	for c := range errs {
		for _, err := range errs[c] {
			opDone(err)
		}
	}

	sp = tr.begin("ingest.report", root, op)
	t := time.Now()
	code, body, err := ip.do(http.MethodGet, "/v1/report", nil)
	reportMs := float64(time.Since(t).Nanoseconds()) / 1e6
	tr.end(sp)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET /v1/report: status %d", code)
	} else if err == nil && !bytes.Equal(body, ip.want) {
		err = fmt.Errorf("GET /v1/report: body differs from the local core.Analyze")
	}
	opDone(err)

	sp = tr.begin("ingest.advice", root, op)
	code, body, err = ip.do(http.MethodGet, "/v1/advice/"+ip.obj, nil)
	tr.end(sp)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET /v1/advice/%s: status %d", ip.obj, code)
	}
	if err == nil && ip.advice == nil {
		ip.advice = body
	} else if err == nil && !bytes.Equal(body, ip.advice) {
		err = fmt.Errorf("GET /v1/advice/%s: body differs from the first round", ip.obj)
	}
	opDone(err)
	tr.end(root)
	d := time.Since(t0)

	if !record {
		return nil
	}
	ip.pl.add(d, tr != nil)
	for c := range lat {
		ip.posts += len(lat[c])
		ip.rejected += rejected[c]
	}
	if tr != nil {
		return nil
	}
	for c := range lat {
		ip.postMs = append(ip.postMs, lat[c]...)
		ip.pl.input += float64(acked[c])
	}
	ip.reportMs = append(ip.reportMs, reportMs)
	ip.pl.inputTime += pushTime
	ip.pushS = append(ip.pushS, pushTime.Seconds())
	ip.pl.addOp(0, d)
	return nil
}

// do sends one request and reads the whole response body.
func (ip *ingestPath) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, ip.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", server.ContentTypeBinary)
	}
	resp, err := ip.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

func (ip *ingestPath) metrics(m map[string]float64) {
	m["ingest.samples_per_s"] = ip.pl.input / ip.pl.inputTime.Seconds()
	m["ingest.post_p50_ms"] = median(ip.postMs)
	m["ingest.report_p50_ms"] = median(ip.reportMs)
}

func (ip *ingestPath) log() *passLog { return &ip.pl }

// e2e's input is the samples a round pushes, over the fastest push phase.
func (ip *ingestPath) e2e(m map[string]float64) {
	m["pass_min_s"] = ip.pl.min()
	m["input_per_s"] = float64(ip.samples) / minimum(ip.pushS)
	m["overhead_pct"] = ip.overhead
}

func (ip *ingestPath) close() {
	if ip.hs == nil {
		return
	}
	ip.hs.Close()
	<-ip.served
	ip.client.CloseIdleConnections()
	ip.hs = nil
}

// probe times the server's decode and the analyzer's ingest and report
// directly, without HTTP, over one round's worth of requests.
func (ip *ingestPath) probe(tr *tracer, m map[string]float64) error {
	var decode, ingest time.Duration
	var report []float64
	requests := 0
	for r := 0; r < probeRepeats; r++ {
		op := tr.newOp()
		root := tr.begin("probe.ingest", 0, op)
		an, err := stream.New(ip.prog, stream.Config{Shards: ingestShards})
		if err != nil {
			return err
		}
		for _, reqs := range ip.sessions {
			for _, rq := range reqs {
				sp := tr.begin("server.decode", root, op)
				t := time.Now()
				bs, arena, err := server.DecodeBatchesArena(bytes.NewReader(rq.body), server.ContentTypeBinary)
				decode += time.Since(t)
				tr.end(sp)
				if err != nil {
					return err
				}
				for range bs {
					arena.Release()
				}
				requests++
				sp = tr.begin("stream.ingest", root, op)
				t = time.Now()
				for _, b := range rq.batches {
					if err := an.Ingest(b); err != nil {
						return err
					}
				}
				ingest += time.Since(t)
				tr.end(sp)
			}
		}
		sp := tr.begin("stream.report", root, op)
		t := time.Now()
		rep, err := an.Report()
		report = append(report, float64(time.Since(t).Nanoseconds())/1e6)
		tr.end(sp)
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		rep.RenderText(&buf)
		err = nil
		if !bytes.Equal(buf.Bytes(), ip.want) {
			err = fmt.Errorf("direct stream report differs from local core.Analyze")
		}
		opDone(err)
		tr.end(root)
	}
	decodeUs := float64(decode.Microseconds()) / float64(requests)
	m["server.decode_us_per_request"] = decodeUs
	m["stream.ingest_ns_per_sample"] = float64(ingest.Nanoseconds()) / float64(ip.samples*probeRepeats)
	m["stream.report_ms"] = median(report)
	// The analyzer ingests after the 202, in the session's worker, so a
	// POST's own latency is decode plus HTTP and queueing.
	m["http.post_overhead_us"] = mean(ip.postMs)*1e3 - decodeUs
	m["ingest.post_p99_ms"] = quantile(ip.postMs, 0.99)
	m["ingest.report_p90_ms"] = quantile(ip.reportMs, 0.90)
	m["server.rejected_ratio"] = float64(ip.rejected) / float64(ip.posts)
	// Decode and ingest as shares of a round: the CPU time a round spends
	// in each, over the round's wall time.
	perRound := float64(probeRepeats) * mean(ip.pl.plain)
	m["share.ingest.decode"] = 100 * decode.Seconds() / perRound
	m["share.ingest.stream_ingest"] = 100 * ingest.Seconds() / perRound
	return nil
}
