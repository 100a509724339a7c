// Observability: a five-node fleet runs a batch of agreement tasks over real
// TCP sockets with light chaos injection, while the process serves its
// telemetry over HTTP. The example scrapes its own /metrics endpoint the way
// a Prometheus collector would, then prints a digest: round-latency
// percentiles from the registry's histograms and the link-layer repair work
// the chaos faults caused.
package main

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"time"

	"chc"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Mount the exposition server (port 0 picks a free port). This enables
	// metric collection process-wide; the server also serves /runs and
	// /debug/pprof for live inspection.
	addr, shutdown, err := chc.ServeTelemetry("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer func() {
		_ = shutdown()
		chc.EnableTelemetry(false)
	}()
	fmt.Printf("telemetry: http://%s/metrics\n", addr)

	const n = 5
	params := chc.Params{
		N: n, F: 1, D: 2,
		Epsilon:    0.05,
		InputLower: 0, InputUpper: 10,
	}
	inputs := func(shift float64) []chc.Point {
		pts := make([]chc.Point, n)
		for i := range pts {
			pts[i] = chc.NewPoint(float64(i)+shift, float64(n-i)-shift)
		}
		return pts
	}
	chaos := chc.LightChaos()
	cfg := chc.BatchConfig{
		N: n,
		Instances: []chc.BatchInstance{
			{Params: params, Inputs: inputs(0)},
			{Params: params, Inputs: inputs(0.5)},
			{Params: params, Inputs: inputs(1)},
		},
		Transport: chc.TCP,
		Timeout:   2 * time.Minute,
		Seed:      11,
		Env:       chc.Env{Chaos: &chaos, ChaosSeed: 11},
	}

	result, err := chc.RunBatch(cfg)
	if err != nil {
		return err
	}
	for k, outs := range result.Outputs {
		fmt.Printf("instance %d: %d/%d nodes decided\n", k, len(outs), n)
	}

	// Scrape our own /metrics endpoint over HTTP, Prometheus-style.
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	lines := strings.Split(strings.TrimRight(string(body), "\n"), "\n")
	fmt.Printf("scraped %d exposition lines; consensus families:\n", len(lines))
	for _, line := range lines {
		if strings.HasPrefix(line, "chc_consensus_decided_total") {
			fmt.Printf("  %s\n", line)
		}
	}

	// The batch result carries the same data as a structured snapshot:
	// report round-latency percentiles and the chaos repair work.
	snap := result.Telemetry
	if mf := snap.Find("chc_consensus_round_seconds"); mf != nil {
		for _, s := range mf.Samples {
			if s.Labels["protocol"] != "cc" || s.Histogram == nil {
				continue
			}
			fmt.Printf("round latency: n=%d p50=%.3gs p90=%.3gs p99=%.3gs\n",
				s.Histogram.Count,
				s.Histogram.Quantile(0.50),
				s.Histogram.Quantile(0.90),
				s.Histogram.Quantile(0.99))
		}
	}
	total := func(name string) float64 {
		if mf := snap.Find(name); mf != nil {
			return mf.Total()
		}
		return 0
	}
	fmt.Printf("chaos repair: %.0f drops injected, %.0f retransmits, %.0f duplicates suppressed\n",
		total("chc_chaos_drops_total"),
		total("chc_rlink_retransmits_total"),
		total("chc_rlink_dup_suppressed_total"))
	return nil
}
