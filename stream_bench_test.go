package repro_test

// Benchmark of the streaming ingest path: the same replayed sample
// stream pushed straight into the analyzer ("direct"), through the HTTP
// ingest server one request per batch in the debuggable codec ("http":
// NDJSON, sequential client), and through the high-throughput path ("binary": length-
// prefixed binary frames, windows of batches per request, concurrent
// per-session pushers, sharded analyzer). Each sub-benchmark reports
// samples/sec plus allocs/sample and bytes/sample, so both the transport
// gap and the zero-copy decode claim are visible and gateable.
//
// The server and analyzer live outside the timed loop: the benchmark
// measures steady-state ingest throughput, not per-run setup. The stream
// replays at a dense sampling period (~10k samples/session) replicated
// across several sessions so per-request costs amortize the way a real
// multi-client load does.

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/workloads"
	"repro/structslim"
)

// streamBenchBatches profiles the workload once at a dense period and
// replays it as `replicas` identical sessions, each split into
// push-protocol batches. Returns the batches grouped per session.
func streamBenchBatches(b *testing.B, name string, batchSize, replicas int) (sessions [][]stream.Batch, samples int) {
	b.Helper()
	w, err := workloads.Get(name)
	if err != nil {
		b.Fatal(err)
	}
	p, phases, err := w.Build(nil, benchScale())
	if err != nil {
		b.Fatal(err)
	}
	res, err := structslim.ProfileRun(p, phases, structslim.Options{SamplePeriod: 53, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	for r := 0; r < replicas; r++ {
		for _, tp := range res.ThreadProfiles {
			var batches []stream.Batch
			n := len(tp.Samples)
			var seq uint64
			for start := 0; start < n || start == 0; start += batchSize {
				end := start + batchSize
				if end > n {
					end = n
				}
				batch := stream.Batch{
					Session: fmt.Sprintf("bench-r%02d-t%03d", r, tp.TID),
					Process: "bench",
					TID:     int32(tp.TID),
					Period:  tp.Period,
					Seq:     seq,
					Samples: tp.Samples[start:end],
				}
				if start == 0 {
					batch.Objects = tp.Objects
				}
				batches = append(batches, batch)
				samples += end - start
				seq++
				if end == n {
					break
				}
			}
			sessions = append(sessions, batches)
		}
	}
	return sessions, samples
}

// reportPerSample converts a before/after MemStats pair into the
// per-sample custom metrics next to the standard throughput number.
func reportPerSample(b *testing.B, m0, m1 *runtime.MemStats, samples int, elapsed time.Duration) {
	total := float64(samples) * float64(b.N)
	if sec := elapsed.Seconds(); sec > 0 {
		b.ReportMetric(total/sec, "samples/sec")
	}
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/total, "allocs/sample")
	b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/total, "bytes/sample")
}

func BenchmarkStreamIngest(b *testing.B) {
	const batchSize = 512
	sessions, samples := streamBenchBatches(b, "quickstart", batchSize, 4)

	b.Run("direct", func(b *testing.B) {
		an, err := stream.New(nil, stream.Config{DropSamples: true})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		for i := 0; i < b.N; i++ {
			for _, batches := range sessions {
				for _, batch := range batches {
					if err := an.Ingest(batch); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&m1)
		reportPerSample(b, &m0, &m1, samples, elapsed)
	})

	b.Run("http", func(b *testing.B) {
		// One NDJSON request per batch, sequential client. Pre-framed
		// payloads so the loop measures transport + decode + ingest, not
		// client-side encoding.
		var payloads [][]byte
		for _, batches := range sessions {
			for i := range batches {
				var buf bytes.Buffer
				if err := server.EncodeBatches(&buf, server.ContentTypeNDJSON, batches[i:i+1]); err != nil {
					b.Fatal(err)
				}
				payloads = append(payloads, buf.Bytes())
			}
		}
		an, err := stream.New(nil, stream.Config{DropSamples: true})
		if err != nil {
			b.Fatal(err)
		}
		srv := server.New(an, server.Config{QueueDepth: 4096})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		defer srv.Drain()
		b.ReportAllocs()
		b.ResetTimer()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		for i := 0; i < b.N; i++ {
			for _, payload := range payloads {
				resp, err := http.Post(ts.URL+"/v1/samples", server.ContentTypeNDJSON, bytes.NewReader(payload))
				if err != nil {
					b.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted {
					b.Fatalf("POST: %d", resp.StatusCode)
				}
			}
			srv.Flush()
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&m1)
		reportPerSample(b, &m0, &m1, samples, elapsed)
	})

	b.Run("binary", func(b *testing.B) {
		// The high-throughput path: binary frames, a window of batches per
		// request, one concurrent pusher per session, sharded analyzer.
		const window = 8
		var perSession [][][]byte // session → request payloads, in order
		for _, batches := range sessions {
			var payloads [][]byte
			for start := 0; start < len(batches); start += window {
				end := start + window
				if end > len(batches) {
					end = len(batches)
				}
				var frame []byte
				for i := start; i < end; i++ {
					frame = server.AppendBatchBinary(frame, &batches[i])
				}
				payloads = append(payloads, frame)
			}
			perSession = append(perSession, payloads)
		}
		an, err := stream.New(nil, stream.Config{DropSamples: true, Shards: 8})
		if err != nil {
			b.Fatal(err)
		}
		srv := server.New(an, server.Config{QueueDepth: 4096})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		defer srv.Drain()
		client := &http.Client{Transport: &http.Transport{
			MaxIdleConns:        len(perSession) + 2,
			MaxIdleConnsPerHost: len(perSession) + 2,
		}}
		b.ReportAllocs()
		b.ResetTimer()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			errc := make(chan error, len(perSession))
			for _, payloads := range perSession {
				wg.Add(1)
				go func(payloads [][]byte) {
					defer wg.Done()
					for _, payload := range payloads {
						resp, err := client.Post(ts.URL+"/v1/samples", server.ContentTypeBinary, bytes.NewReader(payload))
						if err != nil {
							errc <- err
							return
						}
						resp.Body.Close()
						if resp.StatusCode != http.StatusAccepted {
							errc <- fmt.Errorf("POST: %d", resp.StatusCode)
							return
						}
					}
				}(payloads)
			}
			wg.Wait()
			close(errc)
			if err := <-errc; err != nil {
				b.Fatal(err)
			}
			srv.Flush()
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&m1)
		reportPerSample(b, &m0, &m1, samples, elapsed)
	})
}
