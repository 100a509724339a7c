// Command chcrun executes one convex hull consensus instance and prints the
// outcome: per-process output polytopes, the agreement/validity/optimality
// checks, and message statistics.
//
// Usage examples:
//
//	chcrun -n 7 -f 1 -d 2 -eps 0.01 -seed 3
//	chcrun -n 5 -f 1 -d 2 -faulty 3 -crash 3:9 -sched delay
//	chcrun -n 3 -f 1 -d 2 -model correct
//	chcrun -n 5 -f 1 -d 2 -transport tcp     # real sockets instead of simulation
//	chcrun -n 5 -f 1 -transport inproc -chaos heavy -chaos-seed 3
//	chcrun -n 5 -f 1 -transport tcp -chaos 'drop=0.2,dup=0.1,delay=100us-2ms'
//	chcrun -n 5 -f 1 -transport inproc -wal-dir /tmp/chc-wal -crash 2:9 -recover
//	chcrun -n 5 -f 1 -transport sim -wan us-eu-ap -wan-seed 3   # geo-modeled virtual time
//	chcrun -n 5 -f 1 -transport tcp -wan '3-regions,delay=0.01' # wall-clock link shaping
//	chcrun -n 5 -f 1 -batch 4 -transport tcp          # four CC instances, one network
//	chcrun -n 5 -f 1 -batch 3 -protocol vector        # vector-consensus batch
//	chcrun -n 5 -f 1 -protocol byzantine -faulty 4    # Byzantine batch, adversary at p4
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"chc"
	"chc/internal/envflag"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "chcrun:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) (err error) {
	fs := flag.NewFlagSet("chcrun", flag.ContinueOnError)
	var (
		n             = fs.Int("n", 7, "number of processes")
		f             = fs.Int("f", 1, "maximum faulty processes")
		d             = fs.Int("d", 2, "input dimension")
		eps           = fs.Float64("eps", 0.01, "agreement parameter ε")
		seed          = fs.Int64("seed", 1, "scheduler / input seed")
		faulty        = fs.String("faulty", "", "comma-separated faulty process IDs")
		crash         = fs.String("crash", "", "crash plans id:afterSends,...")
		sched         = fs.String("sched", "random", "scheduler: random|rr|delay|split")
		model         = fs.String("model", "incorrect", "fault model: incorrect|correct")
		transport     = fs.String("transport", "sim", "execution: sim|inproc|tcp")
		batch         = fs.Int("batch", 0, "run this many instances as one batch multiplexed over the shared transport (0 = single-instance mode)")
		protocol      = fs.String("protocol", "cc", "protocol for batch instances: cc|vector|byzantine (implies batch mode when not cc)")
		byz           = fs.String("byz", "", "run the Byzantine transformation with this adversary at the first faulty process: silent|incorrect|equivocator|garbler")
		traceFile     = fs.String("tracefile", "", "write the full execution trace (per-round states) as JSON to this file")
		recoverWAL    = fs.Bool("recover", false, "treat -crash plans as kill-and-restart faults: relaunch killed processes from their WALs (requires -wal-dir)")
		downtime      = fs.Duration("recover-downtime", 10*time.Millisecond, "how long a killed process stays down before its WAL relaunch")
		metricsAddr   = fs.String("metrics-addr", "", "enable telemetry and serve /metrics, /runs and /debug/pprof on this address (host:port; port 0 picks a free port)")
		telemetryJSON = fs.String("telemetry-json", "", "enable telemetry and write the final registry snapshot as JSON to this file (written on error and timeout exits too)")
	)
	bindEnv := envflag.Bind(fs, envflag.Chaos|envflag.Checkpoint|envflag.Faults)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var bt chc.BatchTransport
	switch *transport {
	case "sim":
		bt = chc.BatchSim
	case "inproc":
		bt = chc.BatchInProcess
	case "tcp":
		bt = chc.BatchTCP
	default:
		return fmt.Errorf("unknown transport %q", *transport)
	}
	// One environment for every mode; which transport accepts which part of
	// it is the engine's rule, not restated per flag here.
	bound, err := bindEnv(bt)
	if err != nil {
		return err
	}
	env, wanPlan := bound.Env, *bound.Env.WAN
	if *recoverWAL {
		if env.WALDir == "" {
			return fmt.Errorf("-recover requires -wal-dir")
		}
		if *crash == "" {
			return fmt.Errorf("-recover needs -crash plans to convert into kill-and-restart faults")
		}
	}

	if *metricsAddr != "" {
		resolved, _, serr := chc.ServeTelemetry(*metricsAddr)
		if serr != nil {
			return fmt.Errorf("-metrics-addr: %w", serr)
		}
		fmt.Fprintf(w, "telemetry   : serving /metrics /runs /debug/pprof on http://%s\n", resolved)
	}
	if *telemetryJSON != "" {
		chc.EnableTelemetry(true)
	}
	if chc.TelemetryEnabled() {
		// Failed and timed-out runs return no result object, so their summary
		// comes from the process-wide registry instead; the JSON dump is
		// written on every exit path for the same reason.
		defer func() {
			if err != nil {
				printTelemetrySummary(w)
			}
			if *telemetryJSON != "" {
				if werr := writeTelemetryJSON(w, *telemetryJSON); werr != nil {
					if err == nil {
						err = werr
					} else {
						fmt.Fprintf(w, "telemetry   : %v\n", werr)
					}
				}
			}
		}()
	}

	params := chc.Params{
		N: *n, F: *f, D: *d,
		Epsilon:    *eps,
		InputLower: 0, InputUpper: 10,
	}
	switch *model {
	case "incorrect":
		params.Model = chc.IncorrectInputs
	case "correct":
		params.Model = chc.CorrectInputs
	default:
		return fmt.Errorf("unknown fault model %q", *model)
	}

	rng := rand.New(rand.NewSource(*seed))
	inputs := make([]chc.Point, *n)
	for i := range inputs {
		p := make([]float64, *d)
		for j := range p {
			p[j] = rng.Float64() * 10
		}
		inputs[i] = chc.NewPoint(p...)
	}

	cfg := chc.RunConfig{Params: params, Inputs: inputs, Seed: *seed}
	if *faulty != "" {
		ids, err := parseIDs(*faulty)
		if err != nil {
			return err
		}
		cfg.Faulty = ids
	}
	if *crash != "" {
		plans, err := parseCrashes(*crash)
		if err != nil {
			return err
		}
		cfg.Crashes = plans
	}
	switch *sched {
	case "random":
	case "rr":
		cfg.Scheduler = chc.NewRoundRobinScheduler()
	case "delay":
		cfg.Scheduler = chc.NewDelayScheduler(cfg.Faulty...)
	case "split":
		half := make([]chc.ProcID, 0, *n/2)
		for i := 0; i < *n/2; i++ {
			half = append(half, chc.ProcID(i))
		}
		cfg.Scheduler = chc.NewSplitScheduler(half...)
	default:
		return fmt.Errorf("unknown scheduler %q", *sched)
	}
	if wanPlan.Enabled() && bt == chc.BatchSim {
		if *sched != "random" {
			return fmt.Errorf("-wan drives the simulator's delivery order itself; drop -sched %s", *sched)
		}
		ws, werr := chc.NewWANScheduler(wanPlan, *n, env.WANSeed)
		if werr != nil {
			return fmt.Errorf("-wan: %w", werr)
		}
		cfg.Scheduler = ws
	}

	if *batch > 0 || *protocol != "cc" {
		if *byz != "" {
			return fmt.Errorf("-byz cannot be combined with batch mode; use -protocol byzantine")
		}
		if *traceFile != "" {
			return fmt.Errorf("-tracefile is not supported in batch mode")
		}
		k := *batch
		if k <= 0 {
			k = 1
		}
		bm := batchMode{
			params: params, protocol: *protocol, k: k, transportName: *transport, transport: bt,
			seed: *seed, rng: rng, faulty: cfg.Faulty, crashes: cfg.Crashes,
			env: env, recoverWAL: *recoverWAL, downtime: *downtime,
		}
		if bt == chc.BatchSim && !wanPlan.Enabled() {
			// With -wan the engine builds the virtual-time scheduler itself;
			// the one built above was the single-instance path's.
			bm.scheduler = cfg.Scheduler
		}
		return runBatchMode(w, bm)
	}

	if *byz != "" {
		return runByzantine(w, params, inputs, cfg.Faulty, *byz, *seed)
	}

	// Disabled plans are absent to the engine, so every option is passed.
	netOpts := []chc.NetworkOption{
		chc.WithNetworkChaos(*env.Chaos, env.ChaosSeed),
		chc.WithWAL(env.WALDir),
		chc.WithDiskFaults(bound.Disk),
		chc.WithNetFaults(*env.NetFaults),
		chc.WithWire(*env.Wire),
		chc.WithWALCheckpoint(env.Checkpoint.EveryBytes),
		chc.WithDurability(env.Durability),
		chc.WithWAN(wanPlan, env.WANSeed),
	}
	if *recoverWAL {
		netOpts = append(netOpts, chc.WithCrashRecovery(*downtime))
	}
	var result *chc.RunResult
	start := time.Now()
	switch bt {
	case chc.BatchSim:
		result, err = chc.Run(cfg)
	case chc.BatchInProcess:
		result, err = chc.RunNetworked(cfg, chc.InProcess, 5*time.Minute, netOpts...)
	case chc.BatchTCP:
		result, err = chc.RunNetworked(cfg, chc.TCP, 5*time.Minute, netOpts...)
	}
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	fmt.Fprintf(w, "convex hull consensus: n=%d f=%d d=%d ε=%g model=%v t_end=%d (%v)\n",
		*n, *f, *d, *eps, params.Model, params.TEnd(), elapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "inputs:\n")
	for i, x := range inputs {
		marker := ""
		if containsID(cfg.Faulty, chc.ProcID(i)) {
			marker = "  (faulty: incorrect input)"
		}
		fmt.Fprintf(w, "  p%-2d %v%s\n", i, x, marker)
	}
	fmt.Fprintf(w, "outputs:\n")
	for i := 0; i < *n; i++ {
		id := chc.ProcID(i)
		out, ok := result.Outputs[id]
		switch {
		case result.Crashed[id]:
			fmt.Fprintf(w, "  p%-2d CRASHED\n", i)
		case !ok:
			fmt.Fprintf(w, "  p%-2d (no decision)\n", i)
		default:
			vol, _ := out.Volume(chc.DefaultEps)
			fmt.Fprintf(w, "  p%-2d %d vertices, volume %.4g: %v\n", i, out.NumVertices(), vol, out)
		}
	}
	if rep, err := chc.CheckAgreement(result); err == nil {
		fmt.Fprintf(w, "ε-agreement : max d_H = %.3g <= %g : %v\n", rep.MaxHausdorff, rep.Epsilon, rep.Holds)
	}
	if err := chc.CheckValidity(result, &cfg); err == nil {
		fmt.Fprintln(w, "validity    : ok (outputs inside correct-input hull)")
	} else {
		fmt.Fprintf(w, "validity    : VIOLATED: %v\n", err)
	}
	if params.Model == chc.IncorrectInputs {
		if err := chc.CheckOptimality(result); err == nil {
			fmt.Fprintln(w, "optimality  : ok (I_Z contained in every output)")
		} else {
			fmt.Fprintf(w, "optimality  : VIOLATED: %v\n", err)
		}
	}
	if result.Stats != nil {
		fmt.Fprintf(w, "messages    : %d sends, %d bytes\n", result.Stats.Sends, result.Stats.Bytes)
		reportNetwork(w, result.Stats.Net, env)
	}
	if wanPlan.Enabled() && bt == chc.BatchSim {
		if ws, ok := cfg.Scheduler.(interface {
			Delivered() int64
			Held() int64
			Elapsed() time.Duration
		}); ok {
			fmt.Fprintf(w, "wan         : %s seed=%d: %d delivered in %v virtual time, %d cut-held\n",
				wanPlan.String(), env.WANSeed, ws.Delivered(), ws.Elapsed().Round(time.Microsecond), ws.Held())
		}
	}
	if len(result.Degraded) > 0 {
		fmt.Fprintf(w, "degraded    : %v (non-durable at shutdown; no re-arm succeeded)\n", result.Degraded)
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := f.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "chcrun: close trace file:", cerr)
			}
		}()
		if err := chc.WriteTraceJSON(f, result); err != nil {
			return err
		}
		fmt.Fprintf(w, "trace       : written to %s\n", *traceFile)
	}
	return nil
}

// batchMode carries the flag values of a batch run.
type batchMode struct {
	params        chc.Params
	protocol      string
	k             int
	transportName string
	transport     chc.BatchTransport
	seed          int64
	rng           *rand.Rand
	faulty        []chc.ProcID
	crashes       []chc.CrashPlan
	scheduler     chc.Scheduler
	env           chc.Env
	recoverWAL    bool
	downtime      time.Duration
}

// reportNetwork prints the link-layer summary of a networked run: one line
// per layer of the environment that was active.
func reportNetwork(w io.Writer, net *chc.NetStats, env chc.Env) {
	if net == nil || !(env.Chaos.Enabled() || net.FramesSent > 0) {
		return
	}
	fmt.Fprintf(w, "network     : %d frames, %d retransmits, %d dup-suppressed, %d reconnects\n",
		net.FramesSent, net.Retransmits, net.DupSuppressed, net.Reconnects)
	if env.Chaos.Enabled() {
		fmt.Fprintf(w, "chaos       : %s seed=%d: %d drops, %d dups, %d delays, %d partition drops injected\n",
			env.Chaos.String(), env.ChaosSeed, net.InjectedDrops, net.InjectedDups, net.InjectedDelays, net.PartitionDrops)
	}
	if env.WALDir != "" {
		fmt.Fprintf(w, "recovery    : %d wal appends in %d fsync batches, %d link resumes\n",
			net.WALAppends, net.WALSyncs, net.Resumes)
	}
	if env.WALFS != nil || env.Checkpoint.Enabled() {
		fmt.Fprintf(w, "storage     : %d durability faults, %d fail-stops, %d degradations, %d re-arms, %d checkpoints\n",
			net.DurabilityFaults, net.FailStops, net.Degradations, net.Rearms, net.WALCheckpoints)
	}
	if env.NetFaults.Enabled() {
		fmt.Fprintf(w, "wire        : %s seed=%d: %d faults injected, %d corrupt frames rejected, %d quarantines, %d readmits\n",
			env.NetFaults.String(), env.NetFaults.Seed, net.InjectedWire, net.CorruptFrames, net.PeerQuarantines, net.PeerReadmits)
	}
	if env.WAN.Enabled() {
		fmt.Fprintf(w, "wan         : %s seed=%d: %d frames delayed, %d writes shaped, %d cut-held\n",
			env.WAN.String(), env.WANSeed, net.WANDelayedFrames, net.WANShapedWrites, net.WANCutHeld)
	}
}

// runBatchMode executes -batch instances of -protocol as one batch
// multiplexed over the shared transport, then reports per-instance decisions
// and agreement.
func runBatchMode(w io.Writer, m batchMode) error {
	var proto chc.BatchProtocol
	switch m.protocol {
	case "cc":
		proto = chc.BatchCC
	case "vector":
		proto = chc.BatchVector
	case "byzantine":
		proto = chc.BatchByzantine
	default:
		return fmt.Errorf("unknown protocol %q (want cc, vector or byzantine)", m.protocol)
	}
	instances := make([]chc.BatchInstance, m.k)
	for i := range instances {
		inputs := make([]chc.Point, m.params.N)
		for j := range inputs {
			p := make([]float64, m.params.D)
			for c := range p {
				p[c] = m.rng.Float64() * 10
			}
			inputs[j] = chc.NewPoint(p...)
		}
		inst := chc.BatchInstance{Params: m.params, Inputs: inputs, Protocol: proto}
		if proto == chc.BatchByzantine {
			// -faulty IDs become incorrect-input adversaries of every
			// Byzantine instance (mirroring -byz incorrect in single mode).
			for _, id := range m.faulty {
				inst.Faults = append(inst.Faults, chc.BatchFault{
					Proc:     id,
					Behavior: chc.ByzIncorrectInput,
					Input:    chc.NewPoint(make([]float64, m.params.D)...),
				})
			}
		}
		instances[i] = inst
	}

	cfg := chc.BatchConfig{
		N:               m.params.N,
		Instances:       instances,
		Crashes:         m.crashes,
		Seed:            m.seed,
		Scheduler:       m.scheduler,
		Transport:       m.transport,
		Timeout:         5 * time.Minute,
		Env:             m.env,
		Recover:         m.recoverWAL,
		RecoverDowntime: m.downtime,
	}
	if proto != chc.BatchByzantine {
		cfg.Faulty = m.faulty
	}

	start := time.Now()
	result, err := chc.RunBatch(cfg)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	fmt.Fprintf(w, "batch consensus: %d × %s over %s: n=%d f=%d d=%d ε=%g seed=%d (%v)\n",
		m.k, m.protocol, m.transportName, m.params.N, m.params.F, m.params.D, m.params.Epsilon,
		m.seed, elapsed.Round(time.Millisecond))
	correct := m.params.N
	if proto == chc.BatchByzantine {
		correct -= len(m.faulty)
	}
	for k := range instances {
		var polys []*chc.Polytope
		if proto == chc.BatchVector {
			for _, pt := range result.Points[k] {
				polys = append(polys, chc.PointPolytope(pt))
			}
		} else {
			for _, out := range result.Outputs[k] {
				polys = append(polys, out)
			}
		}
		maxRound := 0
		for _, r := range result.Rounds[k] {
			if r > maxRound {
				maxRound = r
			}
		}
		line := fmt.Sprintf("  instance %-2d %d/%d decided by round %d", k, len(polys), correct, maxRound)
		if d, herr := chc.MaxPairwiseHausdorff(polys, chc.DefaultEps); herr == nil {
			line += fmt.Sprintf(", max d_H = %.3g <= ε: %v", d, d <= m.params.Epsilon+1e-9)
		}
		fmt.Fprintln(w, line)
	}
	if len(result.Crashed) > 0 {
		ids := make([]int, 0, len(result.Crashed))
		for id := range result.Crashed {
			ids = append(ids, int(id))
		}
		fmt.Fprintf(w, "crashed     : %v\n", ids)
	}
	if result.Stats != nil {
		fmt.Fprintf(w, "messages    : %d sends, %d bytes across %d instances\n",
			result.Stats.Sends, result.Stats.Bytes, m.k)
		reportNetwork(w, result.Stats.Net, m.env)
	}
	return nil
}

// runByzantine executes the Byzantine-compiled protocol with the selected
// adversary behaviour at the first listed faulty process (default: the
// last process).
func runByzantine(w io.Writer, params chc.Params, inputs []chc.Point, faulty []chc.ProcID, behaviorName string, seed int64) error {
	var behavior chc.ByzantineBehavior
	switch behaviorName {
	case "silent":
		behavior = chc.ByzSilent
	case "incorrect":
		behavior = chc.ByzIncorrectInput
	case "equivocator":
		behavior = chc.ByzEquivocator
	case "garbler":
		behavior = chc.ByzGarbler
	default:
		return fmt.Errorf("unknown byzantine behaviour %q", behaviorName)
	}
	target := chc.ProcID(params.N - 1)
	if len(faulty) > 0 {
		target = faulty[0]
	}
	cfg := chc.ByzantineRunConfig{
		Params: params,
		Inputs: inputs,
		Faults: []chc.ByzantineFault{{
			Proc:     target,
			Behavior: behavior,
			Input:    chc.NewPoint(make([]float64, params.D)...),
		}},
		Seed: seed,
	}
	start := time.Now()
	result, err := chc.RunByzantine(cfg)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Fprintf(w, "byzantine convex hull consensus: n=%d f=%d d=%d ε=%g adversary=%v at p%d (%v)\n",
		params.N, params.F, params.D, params.Epsilon, behavior, target, elapsed.Round(time.Millisecond))
	for _, id := range result.Correct() {
		out, ok := result.Outputs[id]
		if !ok {
			fmt.Fprintf(w, "  p%-2d (no decision)\n", id)
			continue
		}
		vol, _ := out.Volume(chc.DefaultEps)
		fmt.Fprintf(w, "  p%-2d %d vertices, volume %.4g\n", id, out.NumVertices(), vol)
	}
	if err := chc.CheckByzantineValidity(result, &cfg); err == nil {
		fmt.Fprintln(w, "validity    : ok")
	} else {
		fmt.Fprintf(w, "validity    : VIOLATED: %v\n", err)
	}
	if d, holds, err := chc.CheckByzantineAgreement(result); err == nil {
		fmt.Fprintf(w, "ε-agreement : max d_H = %.3g <= %g : %v\n", d, params.Epsilon, holds)
	}
	fmt.Fprintf(w, "messages    : %d sends, %d bytes (reliable broadcast)\n",
		result.Stats.Sends, result.Stats.Bytes)
	return nil
}

// printTelemetrySummary prints the message/network/recovery counters from the
// process-wide registry. Error and timeout exits use it: those paths have no
// result object to report from, but the registry has been counting all along.
func printTelemetrySummary(w io.Writer) {
	snap := chc.TelemetrySnapshot()
	total := func(name string) int64 {
		if mf := snap.Find(name); mf != nil {
			return int64(mf.Total())
		}
		return 0
	}
	fmt.Fprintf(w, "telemetry   : %d sends, %d frames, %d retransmits, %d reconnects, %d restarts (registry totals at exit)\n",
		total("chc_runtime_sends_total"), total("chc_rlink_frames_sent_total"),
		total("chc_rlink_retransmits_total"), total("chc_tcp_reconnects_total"),
		total("chc_runtime_restarts_total"))
	if drops := total("chc_chaos_drops_total") + total("chc_chaos_partition_drops_total"); drops > 0 {
		fmt.Fprintf(w, "chaos       : %d drops, %d dups, %d delays injected\n",
			drops, total("chc_chaos_dups_total"), total("chc_chaos_delays_total"))
	}
	if appends := total("chc_wal_appends_total"); appends > 0 {
		fmt.Fprintf(w, "recovery    : %d wal appends in %d fsync batches, %d link resumes\n",
			appends, total("chc_wal_fsyncs_total"), total("chc_rlink_resumes_total"))
	}
}

// writeTelemetryJSON dumps the final registry snapshot to path for scripting.
func writeTelemetryJSON(w io.Writer, path string) error {
	data, err := json.MarshalIndent(chc.TelemetrySnapshot(), "", "  ")
	if err != nil {
		return fmt.Errorf("-telemetry-json: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("-telemetry-json: %w", err)
	}
	fmt.Fprintf(w, "telemetry   : snapshot written to %s\n", path)
	return nil
}

func parseIDs(s string) ([]chc.ProcID, error) {
	var out []chc.ProcID
	for _, part := range strings.Split(s, ",") {
		id, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad process ID %q", part)
		}
		out = append(out, chc.ProcID(id))
	}
	return out, nil
}

func parseCrashes(s string) ([]chc.CrashPlan, error) {
	var out []chc.CrashPlan
	for _, part := range strings.Split(s, ",") {
		bits := strings.SplitN(strings.TrimSpace(part), ":", 2)
		if len(bits) != 2 {
			return nil, fmt.Errorf("bad crash plan %q (want id:afterSends)", part)
		}
		id, err := strconv.Atoi(bits[0])
		if err != nil {
			return nil, fmt.Errorf("bad crash process %q", bits[0])
		}
		after, err := strconv.Atoi(bits[1])
		if err != nil {
			return nil, fmt.Errorf("bad crash afterSends %q", bits[1])
		}
		out = append(out, chc.CrashPlan{Proc: chc.ProcID(id), AfterSends: after})
	}
	return out, nil
}

func containsID(ids []chc.ProcID, id chc.ProcID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}
