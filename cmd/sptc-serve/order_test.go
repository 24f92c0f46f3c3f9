package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"testing"

	"sparta/internal/coo"
	"sparta/internal/core"
	"sparta/internal/einsum"
	"sparta/internal/engine"
)

// The kept-order tests contract leading modes of X, so a freshly stored X is
// never in contraction order, and give X repeated coordinates in shuffled
// row order, so a reorder that was not stable would change the sums.
const (
	specLead  = "abcd,abe->cde" // X's modes 0,1 contracted: rows must move
	specTrail = "abcd,cdf->abf" // X's modes 2,3 contracted: another order
)

func orderTensors(seed int64) (x, yLead, yTrail *coo.Tensor) {
	rng := rand.New(rand.NewSource(seed))
	draw := func(dims []uint64, nnz int) *coo.Tensor {
		t := coo.MustNew(dims, nnz)
		idx := make([]uint32, len(dims))
		for i := 0; i < nnz; i++ {
			for m, d := range dims {
				idx[m] = uint32(rng.Intn(int(d)))
			}
			t.Append(idx, rng.Float64()+0.25)
		}
		return t
	}
	x = draw([]uint64{12, 9, 14, 6}, 6000) // 9072 cells: about a third of the rows repeat a coordinate
	return x, draw([]uint64{12, 9, 7}, 400), draw([]uint64{14, 6, 5}, 300)
}

func putTensor(t *testing.T, url, name string, ten *coo.Tensor) {
	t.Helper()
	var body bytes.Buffer
	if err := ten.WriteBin(&body); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, url+"/tensors/"+name, &body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT %s: status %d", name, resp.StatusCode)
	}
}

func getTensor(t *testing.T, url, name string) string {
	t.Helper()
	resp, err := http.Get(url + "/tensors/" + name)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, %v", name, resp.StatusCode, err)
	}
	return string(body)
}

// orderServer is a server holding x, yLead and yTrail of orderTensors(seed).
func orderServer(t *testing.T, cfg serverConfig, seed int64) (*server, string) {
	t.Helper()
	s, ts := testServer(t, cfg)
	x, yl, yt := orderTensors(seed)
	putTensor(t, ts.URL, "x", x)
	putTensor(t, ts.URL, "yl", yl)
	putTensor(t, ts.URL, "yt", yt)
	return s, ts.URL
}

func (s *server) stored(name string) *coo.Tensor {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tensors[name]
}

func (s *server) radixPasses() uint64 {
	return s.reg.Counter("sptc_sort_radix_passes_total", "").Value()
}

// mustContract posts one request and returns what a reply is compared by.
func mustContract(t *testing.T, url string, req contractRequest) string {
	t.Helper()
	resp, rep, bad := postContract(t, url, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%+v: status %d (%s)", req, resp.StatusCode, bad.Error)
	}
	return fmt.Sprint(rep.NNZ, rep.Fingerprint, rep.OutDims)
}

var (
	reqLead  = contractRequest{X: "x", Y: "yl", Spec: specLead}
	reqTrail = contractRequest{X: "x", Y: "yt", Spec: specTrail}
)

// TestKeptOrderIsInvisible: the first request for an (X, spec) reorders the
// stored X, the following ones find it in order and sort nothing, and no
// reply or GET can tell: all equal what a server that never saw the request
// before answers.
func TestKeptOrderIsInvisible(t *testing.T) {
	_, fresh := orderServer(t, serverConfig{}, 5)
	want := mustContract(t, fresh, reqLead)

	s, url := orderServer(t, serverConfig{}, 5)
	uploaded, infoBefore := s.stored("x"), getTensor(t, url, "x")
	first := mustContract(t, url, reqLead)
	kept, passes := s.stored("x"), s.radixPasses()
	if kept == uploaded || passes == 0 {
		t.Fatalf("first request left the uploaded rows in place (%d radix passes)", passes)
	}
	for i := 2; i <= 3; i++ {
		if got := mustContract(t, url, reqLead); got != first {
			t.Errorf("request %d replied %s, request 1 %s", i, got, first)
		}
		if s.stored("x") != kept || s.radixPasses() != passes {
			t.Errorf("request %d sorted again (%d radix passes, %d after request 1)", i, s.radixPasses(), passes)
		}
	}
	if first != want {
		t.Errorf("replied %s, a fresh server %s", first, want)
	}
	if after := getTensor(t, url, "x"); after != infoBefore {
		t.Errorf("GET /tensors/x changed:\n before %s\n after  %s", infoBefore, after)
	}
}

// TestAlternatingSpecsStayCorrect: two specs that want different orders of
// one X take turns; each reorders what the other left and every reply is the
// fresh server's.
func TestAlternatingSpecsStayCorrect(t *testing.T) {
	_, fresh := orderServer(t, serverConfig{}, 6)
	wantLead, wantTrail := mustContract(t, fresh, reqLead), mustContract(t, fresh, reqTrail)
	_, url := orderServer(t, serverConfig{}, 6)
	for i := 0; i < 3; i++ {
		if got := mustContract(t, url, reqLead); got != wantLead {
			t.Errorf("round %d, %s: replied %s, want %s", i, specLead, got, wantLead)
		}
		if got := mustContract(t, url, reqTrail); got != wantTrail {
			t.Errorf("round %d, %s: replied %s, want %s", i, specTrail, got, wantTrail)
		}
	}
}

// TestKeptOrderNeverResurrectsAReplacedTensor races eight requests on one X
// (two specs, so they reorder each other's result) against a PUT that
// replaces X. The swap into the store is conditional on the pointer the
// request read, so whatever the interleaving the store ends up holding the
// PUT's tensor, and every reply is right for the tensor it read.
func TestKeptOrderNeverResurrectsAReplacedTensor(t *testing.T) {
	older, _, _ := orderTensors(7)
	newer, _, _ := orderTensors(8)
	expect := map[string]bool{}
	for _, seed := range []int64{7, 8} {
		_, fresh := orderServer(t, serverConfig{}, 7)
		x, _, _ := orderTensors(seed)
		putTensor(t, fresh, "x", x)
		expect[mustContract(t, fresh, reqLead)] = true
		expect[mustContract(t, fresh, reqTrail)] = true
	}

	s, url := orderServer(t, serverConfig{}, 7)
	putTensor(t, url, "x", older)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := reqLead
			if i%2 == 1 {
				req = reqTrail
			}
			resp, rep, bad := postContract(t, url, req)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d (%s)", i, resp.StatusCode, bad.Error)
				return
			}
			if got := fmt.Sprint(rep.NNZ, rep.Fingerprint, rep.OutDims); !expect[got] {
				t.Errorf("request %d replied %s, which neither stored tensor gives", i, got)
			}
		}(i)
	}
	putTensor(t, url, "x", newer)
	wg.Wait()
	got, want := engine.FingerprintTensor(s.stored("x"), 1), engine.FingerprintTensor(newer, 1)
	if got != want {
		t.Error("the store holds a reordered copy of the tensor the PUT replaced")
	}
}

// TestKeptOrderReachesEveryTier: the sharded tier scatters X stably and the
// streamed tier permutes it by the same rule, so both find the kept order:
// after the first request nothing sorts, on the front or on a shard.
func TestKeptOrderReachesEveryTier(t *testing.T) {
	_, fresh := orderServer(t, serverConfig{}, 9)
	want := mustContract(t, fresh, reqLead)

	sharded, shardedURL := orderServer(t, serverConfig{LocalShards: 2}, 9)
	if got := mustContract(t, shardedURL, reqLead); got != want {
		t.Errorf("sharded tier replied %s, want %s", got, want)
	}
	passes := sharded.radixPasses()
	if got := mustContract(t, shardedURL, reqLead); got != want || sharded.radixPasses() != passes {
		t.Errorf("second sharded request: reply %s (want %s), radix passes %d -> %d",
			got, want, passes, sharded.radixPasses())
	}

	// A budget that holds the prepared table and an eighth of the rest.
	x, yl, _ := orderTensors(9)
	ein, err := einsum.Parse(specLead)
	if err != nil {
		t.Fatal(err)
	}
	opt := core.Options{Algorithm: core.AlgSparta, Threads: 2}
	pr, err := core.PrepareY(yl, ein.CmodesY, opt)
	if err != nil {
		t.Fatal(err)
	}
	fp := engine.EstimateFootprint(x.NNZ(), pr)
	streamed, streamedURL := orderServer(t, serverConfig{Threads: 2, DRAMBudget: fp.HtY + (fp.Total(2)-fp.HtY)/8}, 9)
	for i := 1; i <= 2; i++ {
		resp, rep, bad := postContract(t, streamedURL, reqLead)
		if resp.StatusCode != http.StatusOK || rep.ExecutionTier != "streamed" {
			t.Fatalf("streamed request %d: status %d, tier %q (%s)", i, resp.StatusCode, rep.ExecutionTier, bad.Error)
		}
		if got := fmt.Sprint(rep.NNZ, rep.Fingerprint, rep.OutDims); got != want {
			t.Errorf("streamed request %d replied %s, want %s", i, got, want)
		}
	}
	kept := streamed.stored("x").SortableView()
	if err := kept.Permute([]int{2, 3, 0, 1}); err != nil {
		t.Fatal(err)
	}
	if !kept.IsSorted() {
		t.Error("the streamed tier did not leave X in contraction order")
	}
}
