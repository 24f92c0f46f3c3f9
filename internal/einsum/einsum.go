// Package einsum parses the Einstein-summation specs the facade and the
// serving engine accept ("abef,efcd->abcd"). Parsing lives below the root
// package so that internal/engine — which resolves specs against its plan
// cache — can share one grammar with sparta.Einsum.
package einsum

import (
	"fmt"
	"strings"

	"sparta/internal/coo"
)

// Plan is the parsed form of an einsum spec.
type Plan struct {
	X, Y, Out []rune // per-operand mode labels

	// CmodesX[k] of X is contracted against CmodesY[k] of Y.
	CmodesX, CmodesY []int

	// OutPerm permutes Z from the engine's natural order (X free modes
	// then Y free modes) into the spec's right-hand-side order.
	OutPerm []int
	// IdentityOut is true when no output permutation is needed.
	IdentityOut bool
}

// Parse validates a spec. Rules: exactly two inputs and one output; every
// label names one mode (one letter per mode, case-sensitive); a label shared
// by both inputs and absent from the output is contracted; every other input
// label must appear in the output exactly once. Repeated labels within one
// operand (traces) and batched modes are not supported.
func Parse(spec string) (*Plan, error) {
	clean := strings.ReplaceAll(spec, " ", "")
	parts := strings.Split(clean, "->")
	if len(parts) != 2 {
		return nil, fmt.Errorf("einsum: spec %q needs exactly one '->'", clean)
	}
	ins := strings.Split(parts[0], ",")
	if len(ins) != 2 {
		return nil, fmt.Errorf("einsum: spec %q needs exactly two inputs", clean)
	}
	p := &Plan{X: []rune(ins[0]), Y: []rune(ins[1]), Out: []rune(parts[1])}
	if len(p.X) == 0 || len(p.Y) == 0 {
		return nil, fmt.Errorf("einsum: empty operand in %q", clean)
	}
	for _, set := range [][]rune{p.X, p.Y, p.Out} {
		seen := map[rune]bool{}
		for _, r := range set {
			if !isLabel(r) {
				return nil, fmt.Errorf("einsum: invalid label %q in %q", r, clean)
			}
			if seen[r] {
				return nil, fmt.Errorf("einsum: repeated label %q within one operand of %q (traces unsupported)", r, clean)
			}
			seen[r] = true
		}
	}
	posX := map[rune]int{}
	for i, r := range p.X {
		posX[r] = i
	}
	posY := map[rune]int{}
	for i, r := range p.Y {
		posY[r] = i
	}
	outSet := map[rune]bool{}
	for _, r := range p.Out {
		outSet[r] = true
	}

	// Contracted labels: in both inputs, not in the output.
	for _, r := range p.X {
		yi, shared := posY[r]
		switch {
		case shared && !outSet[r]:
			p.CmodesX = append(p.CmodesX, posX[r])
			p.CmodesY = append(p.CmodesY, yi)
		case shared && outSet[r]:
			return nil, fmt.Errorf("einsum: label %q is shared by both inputs and kept in the output (batched modes unsupported)", r)
		case !shared && !outSet[r]:
			return nil, fmt.Errorf("einsum: label %q of X appears in neither Y nor the output", r)
		}
	}
	if len(p.CmodesX) == 0 {
		return nil, fmt.Errorf("einsum: %q contracts no modes", clean)
	}
	for _, r := range p.Y {
		if _, shared := posX[r]; !shared && !outSet[r] {
			return nil, fmt.Errorf("einsum: label %q of Y appears in neither X nor the output", r)
		}
	}

	// Natural output order: X free labels (original order) then Y free.
	var natural []rune
	for _, r := range p.X {
		if outSet[r] {
			natural = append(natural, r)
		}
	}
	for _, r := range p.Y {
		if outSet[r] {
			natural = append(natural, r)
		}
	}
	if len(natural) != len(p.Out) {
		return nil, fmt.Errorf("einsum: output %q does not cover the free labels %q", string(p.Out), string(natural))
	}
	natPos := map[rune]int{}
	for i, r := range natural {
		natPos[r] = i
	}
	p.IdentityOut = true
	p.OutPerm = make([]int, len(p.Out))
	for i, r := range p.Out {
		j, ok := natPos[r]
		if !ok {
			return nil, fmt.Errorf("einsum: output label %q is not a free label", r)
		}
		p.OutPerm[i] = j
		if i != j {
			p.IdentityOut = false
		}
	}
	if len(p.Out) == 0 {
		// Scalar result: Z is the 1-mode size-1 tensor; nothing to permute.
		p.IdentityOut = true
	}
	return p, nil
}

// CheckRanks verifies the spec's operand arities against concrete tensors.
func (p *Plan) CheckRanks(spec string, orderX, orderY int) error {
	if len(p.X) != orderX {
		return fmt.Errorf("einsum: spec %q gives X %d modes, tensor has %d", spec, len(p.X), orderX)
	}
	if len(p.Y) != orderY {
		return fmt.Errorf("einsum: spec %q gives Y %d modes, tensor has %d", spec, len(p.Y), orderY)
	}
	return nil
}

// Output puts z, a contraction's result in the natural order (X's free modes
// then Y's), into the spec's output order: it permutes the modes and, unless
// sorted is false, re-sorts the rows the permutation left out of order. An
// identity output is left as it is.
func (p *Plan) Output(z *coo.Tensor, sorted bool, threads int) error {
	if p.IdentityOut {
		return nil
	}
	if err := z.Permute(p.OutPerm); err != nil {
		return err
	}
	if sorted {
		z.Sort(threads)
	}
	return nil
}

func isLabel(r rune) bool {
	return (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
}
