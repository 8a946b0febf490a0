package main

import (
	"bufio"
	"bytes"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// metricDef names one metric of BENCHMARK.json.
type metricDef struct{ name, unit, better string }

// endToEnd are the metrics a run without tracing reports.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_rps", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p90_ms", "ms", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

// perLayer are the metrics a traced run reports. README.md lists the
// end-to-end metric and workload each one should move.
var perLayer = []metricDef{
	{"serve.decode_ms", "ms", "lower"},
	{"serve.handler_ms", "ms", "lower"},
	{"serve.transport_ms", "ms", "lower"},
	{"serve.elapsed_ms", "ms", "lower"},
	{"serve.queue_depth_mean", "count", "lower"},
	{"serve.shed", "count", "lower"},
	{"serve.failures", "count", "lower"},
	{"serve.rejected", "count", "lower"},
	{"kernreg.select_ms", "ms", "lower"},
	{"kernreg.allocs_per_op", "count", "lower"},
	{"kernreg.bytes_per_op", "B", "lower"},
	{"bandwidth.grid_ms", "ms", "lower"},
	{"bandwidth.search_ms", "ms", "lower"},
	{"sortx.cosort_ms", "ms", "lower"},
	{"bandwidth.sweep_ms", "ms", "lower"},
	{"bandwidth.ns_per_pair", "ns", "lower"},
	{"bandwidth.pool_hit_ratio", "ratio", "higher"},
	{"bandwidth.pool_balance", "count", "lower"},
	{"wire.encode_ms", "ms", "lower"},
	{"wire.decode_ms", "ms", "lower"},
	{"coord.select_ms", "ms", "lower"},
	{"coord.front_ms", "ms", "lower"},
	{"coord.self_ms", "ms", "lower"},
	{"coord.shard_rtt_ms", "ms", "lower"},
	{"coord.replica_elapsed_ms", "ms", "lower"},
	{"coord.dispatch_ms", "ms", "lower"},
	{"coord.shard_bytes_per_job", "B", "lower"},
	{"coord.probes_per_job", "count", "lower"},
	{"coord.probe_ms", "ms", "lower"},
	{"coord.attempts_per_shard", "count", "lower"},
	{"coord.cache_hit_ratio", "ratio", "higher"},
	{"coord.hedges", "count", "lower"},
	{"coord.hedge_late", "count", "lower"},
	{"coord.failovers", "count", "lower"},
	{"runtime.alloc_bytes_per_req", "B", "lower"},
	{"runtime.gc_cpu_share", "ratio", "lower"},
	{"runtime.sched_latency_p99_ms", "ms", "lower"},
	{"loadgen.lag_p99_ms", "ms", "lower"},
	{"loadgen.trace_overhead", "ratio", "higher"},
	{"error_ratio", "ratio", "lower"},
}

// hostInfo is the provenance block every result carries.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GitSHA     string `json:"git_sha"`
	Seed       int64  `json:"seed"`
	// ClientConnections is the load's connection budget;
	// MaxOpenConnections is the most it had open at once.
	ClientConnections  int   `json:"client_connections"`
	MaxOpenConnections int64 `json:"max_open_connections"`
}

func hostFacts(seed int64, clients int, maxOpen int64) hostInfo {
	return hostInfo{
		NProc:              runtime.NumCPU(),
		GOMAXPROCS:         runtime.GOMAXPROCS(0),
		CPUModel:           cpuModel(),
		GoVersion:          runtime.Version(),
		GitSHA:             gitSHA(),
		Seed:               seed,
		ClientConnections:  clients,
		MaxOpenConnections: maxOpen,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitSHA is the revision the binary was built from, as the go command
// stamped it; "unknown" when built outside a git checkout.
func gitSHA() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	sha, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			sha = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		sha += "+modified"
	}
	return sha
}
