// Command tns-tool inspects and transforms sparse tensor files in the
// FROSTT .tns text format or the repository's binary formats (selected by
// file extension): .bin is the v1 stream layout, .sptn the v2 mmap-ready
// layout with 8-byte-aligned sections and a sorted flag — the format the
// out-of-core streaming driver consumes zero-copy.
//
//	tns-tool stat     x.tns                # shape, nnz, density, per-mode stats
//	tns-tool describe x.tns                # + occupancy, skew, nnz-per-index histograms
//	tns-tool head    x.tns -n 20           # first non-zeros
//	tns-tool sort    x.tns -o sorted.tns   # lexicographic sort
//	tns-tool permute x.tns -perm 2,0,1 -o p.tns
//	tns-tool convert x.tns -o x.bin        # .tns <-> .bin <-> .sptn
//	tns-tool sort    x.tns -o x.sptn       # one step to a windowed v2 file
//	tns-tool diff    a.tns b.tns -tol 1e-9 # compare (sorted) tensors
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"sparta"
	"sparta/internal/stats"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tns-tool:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: tns-tool {stat|describe|head|sort|permute|convert|diff} <file> [flags]")
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "stat":
		return statCmd(rest)
	case "describe":
		return describeCmd(rest)
	case "head":
		return headCmd(rest)
	case "sort":
		return sortCmd(rest)
	case "permute":
		return permuteCmd(rest)
	case "convert":
		return convertCmd(rest)
	case "diff":
		return diffCmd(rest)
	default:
		return fmt.Errorf("unknown subcommand %q", cmd)
	}
}

// load reads a tensor choosing the format by extension. LoadBin accepts
// both binary versions, so .sptn and .bin read through the same path.
func load(path string) (*sparta.Tensor, error) {
	switch filepath.Ext(path) {
	case ".bin", ".sptn":
		return sparta.LoadBin(path)
	}
	return sparta.LoadTNS(path)
}

// save writes a tensor choosing the format by extension: .sptn writes the
// v2 layout (with the sorted flag when the tensor is sorted — so
// `tns-tool sort x.tns -o x.sptn` produces a stream-ready file in one
// step), .bin the v1 layout.
func save(t *sparta.Tensor, path string) error {
	switch filepath.Ext(path) {
	case ".sptn":
		return t.SaveBinV2(path)
	case ".bin":
		return t.SaveBin(path)
	}
	return t.SaveTNS(path)
}

func statCmd(args []string) error {
	fs := flag.NewFlagSet("stat", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("stat needs one file")
	}
	t, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	card := 1.0
	for _, d := range t.Dims {
		card *= float64(d)
	}
	fmt.Printf("%v\n", t)
	fmt.Printf("order    %d\n", t.Order())
	fmt.Printf("nnz      %d\n", t.NNZ())
	fmt.Printf("density  %.3e\n", float64(t.NNZ())/card)
	fmt.Printf("payload  %s\n", stats.FormatBytes(t.Bytes()))
	fmt.Printf("sorted   %v\n", t.IsSorted())
	tab := stats.NewTable("Mode", "Size", "Distinct", "MinIdx", "MaxIdx")
	for m := range t.Dims {
		distinct := map[uint32]bool{}
		min, max := uint32(math.MaxUint32), uint32(0)
		for _, v := range t.Inds[m] {
			distinct[v] = true
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		if t.NNZ() == 0 {
			min = 0
		}
		tab.Row(m, t.Dims[m], len(distinct), min, max)
	}
	tab.Render(os.Stdout)
	var minV, maxV, sum float64
	if t.NNZ() > 0 {
		minV, maxV = t.Vals[0], t.Vals[0]
	}
	for _, v := range t.Vals {
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
		sum += v
	}
	fmt.Printf("values   min %.4g  max %.4g  sum %.6g\n", minV, maxV, sum)
	return nil
}

func headCmd(args []string) error {
	fs := flag.NewFlagSet("head", flag.ContinueOnError)
	n := fs.Int("n", 10, "number of non-zeros to print")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("head needs one file")
	}
	t, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	idx := make([]uint32, t.Order())
	for i := 0; i < t.NNZ() && i < *n; i++ {
		t.Index(i, idx)
		for _, v := range idx {
			fmt.Printf("%d ", v+1)
		}
		fmt.Printf("%g\n", t.Vals[i])
	}
	return nil
}

func sortCmd(args []string) error {
	fs := flag.NewFlagSet("sort", flag.ContinueOnError)
	out := fs.String("o", "", "output path (required)")
	threads := fs.Int("t", 0, "threads")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 || *out == "" {
		return fmt.Errorf("sort needs one input file and -o")
	}
	t, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	t.Sort(*threads)
	return save(t, *out)
}

func permuteCmd(args []string) error {
	fs := flag.NewFlagSet("permute", flag.ContinueOnError)
	out := fs.String("o", "", "output path (required)")
	permStr := fs.String("perm", "", "mode permutation, e.g. 2,0,1 (new mode m = old mode perm[m])")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 || *out == "" || *permStr == "" {
		return fmt.Errorf("permute needs one input file, -perm, and -o")
	}
	t, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	var perm []int
	for _, f := range strings.Split(*permStr, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return fmt.Errorf("bad permutation entry %q", f)
		}
		perm = append(perm, v)
	}
	if err := t.Permute(perm); err != nil {
		return err
	}
	return save(t, *out)
}

func convertCmd(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ContinueOnError)
	out := fs.String("o", "", "output path (required; format by extension)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 || *out == "" {
		return fmt.Errorf("convert needs one input file and -o")
	}
	t, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	return save(t, *out)
}

func diffCmd(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	tol := fs.Float64("tol", 0, "value tolerance")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("diff needs two files")
	}
	a, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := load(fs.Arg(1))
	if err != nil {
		return err
	}
	a.Sort(0)
	b.Sort(0)
	if len(a.Dims) != len(b.Dims) {
		return fmt.Errorf("order differs: %d vs %d", len(a.Dims), len(b.Dims))
	}
	for m := range a.Dims {
		if a.Dims[m] != b.Dims[m] {
			return fmt.Errorf("mode %d size differs: %d vs %d", m, a.Dims[m], b.Dims[m])
		}
	}
	if a.NNZ() != b.NNZ() {
		return fmt.Errorf("nnz differs: %d vs %d", a.NNZ(), b.NNZ())
	}
	for i := 0; i < a.NNZ(); i++ {
		for m := range a.Dims {
			if a.Inds[m][i] != b.Inds[m][i] {
				return fmt.Errorf("non-zero %d: coordinate differs on mode %d", i, m)
			}
		}
		if d := math.Abs(a.Vals[i] - b.Vals[i]); d > *tol {
			return fmt.Errorf("non-zero %d: |%g - %g| = %g exceeds tolerance %g",
				i, a.Vals[i], b.Vals[i], d, *tol)
		}
	}
	fmt.Println("tensors are identical within tolerance")
	return nil
}
