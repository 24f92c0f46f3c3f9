package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"sparta/internal/coo"
	"sparta/internal/core"
	"sparta/internal/einsum"
	"sparta/internal/engine"
	"sparta/internal/gen"
)

// workload is one benchmark input family. Each pipeline stage dominates one
// workload and is negligible in another, so a change to one stage has a
// workload that shows it and one that predicts no change.
type workload struct {
	Name string
	Why  string
	// Spec is the einsum form of the contraction (the served path needs it;
	// the in-process paths use the contract-mode lists it parses to).
	Spec string
	// Serve sends the timed ops over HTTP to a spawned sptc-serve instead of
	// calling sparta.Contract in the child.
	Serve bool
	// make draws the tensors: one Y and the X operands the ops cycle over.
	// scale shrinks the non-zero counts for the smoke test.
	make func(seed int64, scale float64) (xs []*coo.Tensor, y *coo.Tensor)
}

func scaled(nnz int, scale float64) int { return int(float64(nnz) * scale) }

func preset(name string) gen.Preset {
	p, err := gen.FindPreset(name)
	if err != nil {
		panic(err) // the preset names below are compile-time constants
	}
	return p
}

var workloads = []workload{
	{
		Name: "cold_build",
		Why:  "NIPS-shaped 300k x 300k nnz, 3 contracted modes: the HtY build is ~3/4 of the stage walls, accumulation and writeback ~0, so it shows changes to HtY as a write structure",
		Spec: "abcd,ebcd->ae",
		make: func(seed int64, scale float64) ([]*coo.Tensor, *coo.Tensor) {
			p := preset("NIPS")
			y := gen.Generate(p, scaled(300000, scale), seed)
			return []*coo.Tensor{gen.RandomSkewed(y.Dims, scaled(300000, scale), p.Alpha, seed+1)}, y
		},
	},
	{
		Name: "accum_dense",
		Why:  "uniform 16x16x64x64, 120k nnz each, 2 contracted modes: 3.5M products into 65k outputs (98% accumulate-hits), so HtA accumulation is the largest stage, as in the paper",
		Spec: "abcd,efcd->abef",
		make: func(seed int64, scale float64) ([]*coo.Tensor, *coo.Tensor) {
			dims := []uint64{16, 16, 64, 64}
			return []*coo.Tensor{gen.Random(dims, scaled(120000, scale), seed+1)}, gen.Random(dims, scaled(120000, scale), seed)
		},
	},
	{
		Name: "write_out",
		Why:  "Chicago-shaped 40k x 40k nnz, 3 contracted modes: ~0.96M output non-zeros from 80k inputs, so writeback and allocation are ~3/4 of the op and build and search are negligible",
		Spec: "abcd,ebcd->ae",
		make: func(seed int64, scale float64) ([]*coo.Tensor, *coo.Tensor) {
			p := preset("Chicago")
			return []*coo.Tensor{gen.Generate(p, scaled(40000, scale), seed+1)}, gen.Generate(p, scaled(40000, scale), seed)
		},
	},
	{
		Name:  "serve_warm",
		Why:   "spawned sptc-serve on loopback, cached Y (100k nnz), four X (300k nnz), leading modes contracted: HTTP, plan cache, X permute+sort and HtY probes with no build, the path service users see",
		Spec:  "abcd,abef->cdef",
		Serve: true,
		make: func(seed int64, scale float64) ([]*coo.Tensor, *coo.Tensor) {
			p := preset("NIPS")
			y := gen.Generate(p, scaled(100000, scale), seed)
			xs := make([]*coo.Tensor, 4)
			for i := range xs {
				xs[i] = gen.RandomSkewed(y.Dims, scaled(300000, scale), p.Alpha, seed+1+int64(i))
			}
			return xs, y
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// pairRef is what a child needs to check one (X, Y) contraction without the
// generator or the reference kernel: the reference digest and, for the served
// path that never sees Z, the engine fingerprint of the checked output.
type pairRef struct {
	XFile       string   `json:"x_file"`
	XDims       []uint64 `json:"x_dims"`
	XNNZ        int      `json:"x_nnz"`
	OutDims     []uint64 `json:"out_dims"`
	Ref         digest   `json:"reference"`
	Fingerprint string   `json:"fingerprint"`
}

// manifest describes the generated inputs of one workload.
type manifest struct {
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Spec     string    `json:"spec"`
	YFile    string    `json:"y_file"`
	YDims    []uint64  `json:"y_dims"`
	YNNZ     int       `json:"y_nnz"`
	Pairs    []pairRef `json:"pairs"`
}

func asRef(t *coo.Tensor) refTensor { return refTensor{dims: t.Dims, inds: t.Inds, vals: t.Vals} }

// spartaOpt is the production configuration of the contraction.
var spartaOpt = core.Options{Algorithm: core.AlgSparta}

// generate draws the workload's tensors from seed, saves them under dir and
// records, per X, the frozen reference's digest of X×Y. The library's own
// output is checked against that digest here, before anything is timed, and
// its fingerprint kept for the served path.
func generate(w workload, seed int64, scale float64, dir string) (*manifest, error) {
	ein, err := einsum.Parse(w.Spec)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// A workload draws its tensors from seed, seed+1, …; spacing the runs'
	// seeds apart keeps run n+1 from reusing a tensor of run n.
	xs, y := w.make(seed*16, scale)
	m := &manifest{
		Workload: w.Name, Seed: seed, Spec: w.Spec,
		YFile: filepath.Join(dir, "y.sptn"), YDims: y.Dims, YNNZ: y.NNZ(),
	}
	if err := y.SaveBinV2(m.YFile); err != nil {
		return nil, err
	}
	for i, x := range xs {
		p := pairRef{XFile: filepath.Join(dir, fmt.Sprintf("x%d.sptn", i)), XDims: x.Dims, XNNZ: x.NNZ()}
		if err := x.SaveBinV2(p.XFile); err != nil {
			return nil, err
		}
		outDims, out, err := referenceContract(asRef(x), asRef(y), ein.CmodesX, ein.CmodesY)
		if err != nil {
			return nil, err
		}
		p.OutDims, p.Ref = outDims, digestMap(out)
		if p.Ref.NNZ == 0 {
			return nil, fmt.Errorf("%s: seed %d gives an empty output for x%d", w.Name, seed, i)
		}
		z, _, err := core.Contract(x, y, ein.CmodesX, ein.CmodesY, spartaOpt)
		if err != nil {
			return nil, err
		}
		if err := verify(z, p); err != nil {
			return nil, fmt.Errorf("%s: library output for x%d differs from the reference: %w", w.Name, i, err)
		}
		p.Fingerprint = engine.FingerprintTensor(z, 0).String()
		m.Pairs = append(m.Pairs, p)
	}
	buf, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return m, os.WriteFile(filepath.Join(dir, "manifest.json"), buf, 0o644)
}

// verify checks a contraction output against the pair's reference.
func verify(z *coo.Tensor, p pairRef) error {
	if len(z.Dims) != len(p.OutDims) {
		return fmt.Errorf("output order %d, reference %d", len(z.Dims), len(p.OutDims))
	}
	for m, d := range p.OutDims {
		if z.Dims[m] != d {
			return fmt.Errorf("output dims %v, reference %v", z.Dims, p.OutDims)
		}
	}
	got, err := digestTensor(asRef(z))
	if err != nil {
		return err
	}
	return p.Ref.matches(got)
}
