package main

import (
	"encoding/binary"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sync"
	"time"
)

// This file is frozen like reference.go: the calibration kernel is the
// yardstick the timing metrics are scaled by, so a change to it changes every
// reported time.

// calRefMs is the calibration helper's p50 on this benchmark's reference
// machine state (the 2-vCPU sandbox when quiet; the helper sleeps while an op
// runs, so each calibration starts from cold caches). A window's times are
// multiplied by calRefMs ÷ the window's calibration p50, so on a quiet
// machine the scaled and the measured times coincide.
const calRefMs = 3.0

// calWork is the unit of work per goroutine: a small map-based contraction
// (index one operand by key, accumulate products into an output map), the
// same mix of hashing, pointer chasing, allocation and GC that the library's
// pipeline has, on a working set that fits the L2 cache.
func calWork(seed uint64) int {
	x := 88172645463325252 + seed
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	byKey := make(map[uint64][]int32)
	for i := 0; i < 8000; i++ {
		k := next() % 3000
		byKey[k] = append(byKey[k], int32(i))
	}
	out := make(map[uint64]float64)
	for i := 0; i < 8000; i++ {
		v := next()
		for _, j := range byKey[v%3000] {
			out[(v%500)<<12|uint64(j)&4095] += 1.5
		}
	}
	return len(out)
}

// calibrate runs calWork on every processor at once, as the contraction's
// parallel stages do, and returns the wall time. Sustained contention from
// outside the process (a busy sibling hyperthread, a host short of memory
// bandwidth) slows it by about the factor it slows the contraction, so the
// ratio of the two is steadier than either.
func calibrate() time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for k := 0; k < runtime.GOMAXPROCS(0); k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			calWork(uint64(k))
		}(k)
	}
	wg.Wait()
	return time.Since(start)
}

// calibrator is a helper process that runs calibrate on request. It is a
// process of its own so that the yardstick shares no heap and no GC cycle
// with the code being measured: a change to the library's allocation
// behaviour must not move the calibration.
type calibrator struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out io.Reader
}

func startCalibrator() (*calibrator, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	c := &calibrator{cmd: exec.Command(self, "-calibrate")}
	c.cmd.Stderr = os.Stderr
	c.cmd.SysProcAttr = dieWithParent
	if c.in, err = c.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	if c.out, err = c.cmd.StdoutPipe(); err != nil {
		return nil, err
	}
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	for i := 0; i < 5; i++ { // let the helper's heap and caches settle
		if _, err := c.measure(); err != nil {
			c.close()
			return nil, err
		}
	}
	return c, nil
}

// measure asks the helper for one calibration and returns its wall time.
func (c *calibrator) measure() (time.Duration, error) {
	if _, err := c.in.Write([]byte{1}); err != nil {
		return 0, err
	}
	var ns int64
	if err := binary.Read(c.out, binary.LittleEndian, &ns); err != nil {
		return 0, err
	}
	return time.Duration(ns), nil
}

// close ends the helper (it exits when its stdin closes) and waits for it.
func (c *calibrator) close() {
	_ = c.in.Close() // the helper may already be gone
	_ = c.cmd.Wait() // its exit status carries nothing
}

// calibratorMain is the helper's loop: one calibration per byte received.
func calibratorMain() error {
	var req [1]byte
	for {
		if _, err := io.ReadFull(os.Stdin, req[:]); err != nil {
			return nil // the requester closed the pipe
		}
		if err := binary.Write(os.Stdout, binary.LittleEndian, int64(calibrate())); err != nil {
			return err
		}
	}
}
