package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"sparta"
	"sparta/internal/coo"
	"sparta/internal/einsum"
)

// childSpec is everything a child process is told: file paths, the
// contraction, and the references to check against. It never receives the
// seed or the generator.
type childSpec struct {
	Manifest manifest `json:"manifest"`
	Serve    bool     `json:"serve"`
	ServeBin string   `json:"serve_bin"`
	WorkDir  string   `json:"work_dir"`
	// Mode is "window" (untraced, timed for WindowS seconds after Warmups
	// ops) or "trace" (the layer-by-layer pass over TraceOps ops).
	Mode     string  `json:"mode"`
	WindowS  float64 `json:"window_s"`
	Warmups  int     `json:"warmups"`
	TraceOps int     `json:"trace_ops"`
}

// roundStats is what one untraced window reports.
type roundStats struct {
	Ops            int     `json:"ops"`
	Failed         int     `json:"failed"`
	FirstError     string  `json:"first_error,omitempty"`
	SetupS         float64 `json:"setup_s"`
	CalMsP50       float64 `json:"cal_ms_p50"`
	OpMsP50        float64 `json:"op_ms_p50"`
	OpMsP90        float64 `json:"op_ms_p90"`
	OpMsMax        float64 `json:"op_ms_max"`
	ThroughputOpsS float64 `json:"throughput_ops_s"`
	AllocMBPerOp   float64 `json:"alloc_mb_per_op"`
	ObjectsPerOp   float64 `json:"objects_per_op"`
	GCCyclesPerOp  float64 `json:"gc_cycles_per_op"`
	GCPauseMsPerOp float64 `json:"gc_pause_ms_per_op"`
	CPUMsPerOp     float64 `json:"cpu_ms_per_op"`
	PeakRSSMB      float64 `json:"peak_rss_mb"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
}

// memSnap is the part of runtime.MemStats the benchmark differences, read
// from this process or from a server's /debug/vars.
type memSnap struct {
	TotalAlloc   uint64
	Mallocs      uint64
	NumGC        uint32
	PauseTotalNs uint64
}

// target is the thing a window drives: the library in this process, or a
// spawned server. op runs and checks operation i and returns its wall time;
// a failed check is an error, not a panic.
type target interface {
	op(i int) (time.Duration, error)
	mem() (memSnap, error)
	pid() int
	close()
}

// inproc contracts with the public one-shot API in the child itself.
type inproc struct {
	xs     []*coo.Tensor
	y      *coo.Tensor
	pairs  []pairRef
	cx, cy []int
}

func newInproc(m manifest) (*inproc, error) {
	ein, err := einsum.Parse(m.Spec)
	if err != nil {
		return nil, err
	}
	t := &inproc{pairs: m.Pairs, cx: ein.CmodesX, cy: ein.CmodesY}
	if t.y, err = coo.LoadBin(m.YFile); err != nil {
		return nil, err
	}
	for _, p := range m.Pairs {
		x, err := coo.LoadBin(p.XFile)
		if err != nil {
			return nil, err
		}
		t.xs = append(t.xs, x)
	}
	return t, nil
}

func (t *inproc) op(i int) (time.Duration, error) {
	k := i % len(t.xs)
	start := time.Now()
	z, _, err := sparta.Contract(t.xs[k], t.y, t.cx, t.cy, spartaOpt)
	wall := time.Since(start)
	if err != nil {
		return wall, err
	}
	return wall, verify(z, t.pairs[k])
}

func (t *inproc) mem() (memSnap, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{ms.TotalAlloc, ms.Mallocs, ms.NumGC, ms.PauseTotalNs}, nil
}

func (t *inproc) pid() int { return os.Getpid() }
func (t *inproc) close()   {}

func openTarget(spec childSpec) (target, error) {
	if spec.Serve {
		return newServed(spec.ServeBin, spec.Manifest)
	}
	return newInproc(spec.Manifest)
}

// runWindow is the untraced child: set up, warm up, then issue ops back to
// back from one client for the window, checking each one outside its timing.
func runWindow(spec childSpec, started time.Time) (*roundStats, error) {
	t, err := openTarget(spec)
	if err != nil {
		return nil, err
	}
	defer t.close()
	for i := 0; i < spec.Warmups; i++ {
		if _, err := t.op(i); err != nil {
			return nil, fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}
	st := &roundStats{SetupS: time.Since(started).Seconds(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	cal, err := startCalibrator()
	if err != nil {
		return nil, err
	}
	defer cal.close()

	m0, err := t.mem()
	if err != nil {
		return nil, err
	}
	cpu0, err := procCPU(t.pid())
	if err != nil {
		return nil, err
	}
	var walls, cals []float64
	var busy time.Duration
	window := time.Duration(spec.WindowS * float64(time.Second))
	for begin := time.Now(); time.Since(begin) < window; {
		d, err := t.op(spec.Warmups + st.Ops)
		st.Ops++
		c, cerr := cal.measure()
		if cerr != nil {
			return nil, fmt.Errorf("calibrator: %w", cerr)
		}
		cals = append(cals, float64(c)/1e6)
		if err != nil {
			if st.Failed == 0 {
				st.FirstError = err.Error()
			}
			st.Failed++
			continue
		}
		busy += d
		walls = append(walls, float64(d)/1e6)
	}
	m1, err := t.mem()
	if err != nil {
		return nil, err
	}
	cpu1, err := procCPU(t.pid())
	if err != nil {
		return nil, err
	}
	if st.PeakRSSMB, err = procPeakRSSMB(t.pid()); err != nil {
		return nil, err
	}

	ops := float64(st.Ops)
	st.CalMsP50 = median(cals)
	st.OpMsP50 = median(walls)
	st.OpMsP90 = percentile(walls, 0.9)
	st.OpMsMax = percentile(walls, 1)
	if busy > 0 {
		st.ThroughputOpsS = float64(len(walls)) / busy.Seconds()
	}
	st.AllocMBPerOp = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6 / ops
	st.ObjectsPerOp = float64(m1.Mallocs-m0.Mallocs) / ops
	st.GCCyclesPerOp = float64(m1.NumGC-m0.NumGC) / ops
	st.GCPauseMsPerOp = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6 / ops
	st.CPUMsPerOp = (cpu1 - cpu0).Seconds() * 1e3 / ops
	return st, nil
}

// childMain runs one child and prints its result as one JSON line.
func childMain(specPath string, started time.Time) error {
	buf, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec childSpec
	if err := json.Unmarshal(buf, &spec); err != nil {
		return err
	}
	var out any
	switch spec.Mode {
	case "window":
		out, err = runWindow(spec, started)
	case "trace":
		out, err = runTrace(spec)
	default:
		err = fmt.Errorf("unknown child mode %q", spec.Mode)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

// clockTick is USER_HZ, the unit of the CPU times in /proc/<pid>/stat; Linux
// fixes it at 100 for every architecture Go supports.
const clockTick = 100

// procCPU returns the user+system CPU time process pid has used.
func procCPU(pid int) (time.Duration, error) {
	buf, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields are counted from
	// the closing parenthesis. utime and stime are fields 14 and 15.
	rest := string(buf[strings.LastIndexByte(string(buf), ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(f))
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu times %q %q", pid, f[11], f[12])
	}
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

// procPeakRSSMB returns the VmHWM (peak resident set) of process pid in MB.
func procPeakRSSMB(pid int) (float64, error) {
	buf, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status: %q: %w", pid, line, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM line", pid)
}
