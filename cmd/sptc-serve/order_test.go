package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"

	"sparta/internal/coo"
	"sparta/internal/core"
	"sparta/internal/einsum"
	"sparta/internal/engine"
)

// The kept-operand tests contract leading modes of X, so a freshly stored X
// is never in contraction order, and give X repeated coordinates in shuffled
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

func (s *server) stored(name string) *operand {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tensors[name]
}

func (s *server) radixPasses() uint64 {
	return s.reg.Counter("sptc_sort_radix_passes_total", "").Value()
}

func (s *server) xPrepared(outcome string) uint64 {
	return s.reg.Counter("sptc_serve_x_prepared_total", "", "outcome", outcome).Value()
}

// replyKey is what two replies are compared by.
func replyKey(rep contractReply) string {
	return fmt.Sprint(rep.NNZ, rep.Fingerprint, rep.OutDims)
}

// mustContract posts one request that must succeed.
func mustContract(t *testing.T, url string, req contractRequest) contractReply {
	t.Helper()
	resp, rep, bad := postContract(t, url, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%+v: status %d (%s)", req, resp.StatusCode, bad.Error)
	}
	return rep
}

var (
	reqLead  = contractRequest{X: "x", Y: "yl", Spec: specLead}
	reqTrail = contractRequest{X: "x", Y: "yt", Spec: specTrail}
	// reqLeadOut is reqLead with its output modes permuted, which keeps a
	// streamed Z on the heap.
	reqLeadOut = contractRequest{X: "x", Y: "yl", Spec: "abcd,abe->ecd"}
)

// holdsOneCopy fails the test unless the operand stored under name holds its
// rows once: a prepared form, when there is one, is a form of the stored
// tensor itself (core's TestPrepareX pins that the kernel's view shares
// Tensor()'s columns), and the fingerprint is the stored tensor's.
func holdsOneCopy(t *testing.T, s *server, name string) *operand {
	t.Helper()
	op := s.stored(name)
	if op.px != nil && op.px.Tensor() != op.t {
		t.Errorf("%s: the store holds prepared rows beside the tensor, not in its place", name)
	}
	if want := engine.FingerprintTensor(op.t, 1); op.fp != want {
		t.Errorf("%s: stored fingerprint %s, the tensor's is %s", name, op.fp, want)
	}
	return op
}

// TestKeptOrderIsInvisible: the first request for an (X, spec) prepares the
// stored X and swaps the ordered tensor into the store, the following ones
// reuse that operand untouched and sort nothing, and no reply or GET can
// tell: all equal what a server that never saw the request before answers.
func TestKeptOrderIsInvisible(t *testing.T) {
	_, fresh := orderServer(t, serverConfig{}, 5)
	want := replyKey(mustContract(t, fresh, reqLead))

	s, url := orderServer(t, serverConfig{}, 5)
	uploaded, infoBefore := s.stored("x"), getTensor(t, url, "x")
	first := mustContract(t, url, reqLead)
	kept, passes := holdsOneCopy(t, s, "x"), s.radixPasses()
	if kept.t == uploaded.t || kept.px == nil || passes == 0 || first.XPrepared {
		t.Fatalf("first request left the uploaded rows in place (%d radix passes, x_prepared %v)", passes, first.XPrepared)
	}
	for i := 2; i <= 3; i++ {
		got := mustContract(t, url, reqLead)
		if replyKey(got) != replyKey(first) || !got.XPrepared {
			t.Errorf("request %d replied %s (x_prepared %v), request 1 %s", i, replyKey(got), got.XPrepared, replyKey(first))
		}
		if s.stored("x") != kept || s.radixPasses() != passes {
			t.Errorf("request %d prepared again (%d radix passes, %d after request 1)", i, s.radixPasses(), passes)
		}
	}
	if replyKey(first) != want {
		t.Errorf("replied %s, a fresh server %s", replyKey(first), want)
	}
	if after := getTensor(t, url, "x"); after != infoBefore {
		t.Errorf("GET /tensors/x changed:\n before %s\n after  %s", infoBefore, after)
	}
	if miss, hit := s.xPrepared("miss"), s.xPrepared("hit"); miss != 1 || hit != 2 {
		t.Errorf("sptc_serve_x_prepared_total: %d misses, %d hits, want 1 and 2", miss, hit)
	}

	// A box too wide for LN keys has only the unstable tuple quicksort: it
	// is prepared for every request and the store keeps what was uploaded.
	wide := coo.MustNew([]uint64{1 << 32, 1 << 31, 6}, 0)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		wide.Append([]uint32{rng.Uint32(), rng.Uint32() >> 1, uint32(rng.Intn(6))}, rng.Float64()+0.25)
	}
	putTensor(t, url, "wide", wide)
	yw := coo.MustNew([]uint64{6, 5}, 0)
	for i := 0; i < 20; i++ {
		yw.Append([]uint32{uint32(i % 6), uint32(i % 5)}, rng.Float64()+0.25)
	}
	putTensor(t, url, "yw", yw)
	asPut := s.stored("wide")
	reqWide := contractRequest{X: "wide", Y: "yw", Spec: "abc,cd->abd"}
	w1, w2 := mustContract(t, url, reqWide), mustContract(t, url, reqWide)
	if replyKey(w1) != replyKey(w2) || w1.XPrepared || w2.XPrepared {
		t.Errorf("wide box: replies %s / %s, x_prepared %v / %v", replyKey(w1), replyKey(w2), w1.XPrepared, w2.XPrepared)
	}
	if s.stored("wide") != asPut || asPut.px != nil {
		t.Error("wide box: an unstably sorted tensor was stored")
	}
}

// TestAlternatingSpecsStayCorrect: two specs that want different orders of
// one X take turns. The store keeps one prepared form per name, so each
// switch prepares what the other left, every reply is the fresh server's,
// and — the form being swapped in, not added — live memory does not grow
// with the number of switches.
func TestAlternatingSpecsStayCorrect(t *testing.T) {
	_, fresh := orderServer(t, serverConfig{}, 6)
	wantLead, wantTrail := replyKey(mustContract(t, fresh, reqLead)), replyKey(mustContract(t, fresh, reqTrail))
	s, url := orderServer(t, serverConfig{}, 6)
	round := func(i int) {
		t.Helper()
		for _, c := range []struct {
			req  contractRequest
			want string
		}{{reqLead, wantLead}, {reqTrail, wantTrail}} {
			got := mustContract(t, url, c.req)
			if replyKey(got) != c.want || got.XPrepared {
				t.Errorf("round %d, %s: replied %s (x_prepared %v), want %s from a fresh prepare",
					i, c.req.Spec, replyKey(got), got.XPrepared, c.want)
			}
			holdsOneCopy(t, s, "x")
		}
	}
	liveHeap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	for i := 0; i < 3; i++ {
		round(i)
	}
	before := liveHeap()
	const more = 12
	for i := 3; i < 3+more; i++ {
		round(i)
	}
	// A copy leaked per switch would be 2 × more × X; allow two for noise.
	if after, x := liveHeap(), s.stored("x").t.Bytes(); after > before+2*x {
		t.Errorf("live heap grew %d B over %d switches of a %d B X", after-before, 2*more, x)
	}
	if hit := s.xPrepared("hit"); hit != 0 {
		t.Errorf("%d alternating requests counted as prepared-X hits", hit)
	}
}

// TestKeptOrderNeverResurrectsAReplacedTensor races eight requests on one X
// (two specs, so they prepare each other's result) against a PUT that
// replaces X. The swap into the store is conditional on the operand the
// request read, so whatever the interleaving the store ends up holding the
// PUT's tensor with no prepared form of the old one beside it, and every
// reply is right for the tensor it read. The deterministic half pins the
// interleaving that matters: a PUT lands while a request is in flight.
func TestKeptOrderNeverResurrectsAReplacedTensor(t *testing.T) {
	older, _, _ := orderTensors(7)
	newer, _, _ := orderTensors(8)
	expect := map[string]bool{}
	for _, seed := range []int64{7, 8} {
		_, fresh := orderServer(t, serverConfig{}, 7)
		x, _, _ := orderTensors(seed)
		putTensor(t, fresh, "x", x)
		expect[replyKey(mustContract(t, fresh, reqLead))] = true
		expect[replyKey(mustContract(t, fresh, reqTrail))] = true
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
			if got := replyKey(rep); !expect[got] {
				t.Errorf("request %d replied %s, which neither stored tensor gives", i, got)
			}
		}(i)
	}
	putTensor(t, url, "x", newer)
	wg.Wait()
	wantFP := engine.FingerprintTensor(newer, 1)
	if got := holdsOneCopy(t, s, "x"); got.fp != wantFP {
		t.Error("the store holds a reordered copy of the tensor the PUT replaced")
	}

	// A request reads the operand, a PUT replaces it, the request prepares
	// what it read: the PUT wins, and the request still gets its own rows.
	putTensor(t, url, "x", older)
	read := s.stored("x")
	putTensor(t, url, "x", newer)
	put := s.stored("x")
	px, hit, err := s.preparedX(context.Background(), "x", read, []int{0, 1}, core.Options{Threads: 2})
	if err != nil || hit {
		t.Fatalf("preparedX: hit %v, %v", hit, err)
	}
	if engine.FingerprintTensor(px.Tensor(), 1) != read.fp {
		t.Error("the in-flight request was handed rows of a tensor it did not read")
	}
	if s.stored("x") != put || put.px != nil || put.fp != wantFP {
		t.Error("a prepared form of the replaced tensor survived the PUT")
	}
}

// TestGetAnswersFromTheStoredFingerprint: PUT fingerprints a tensor once;
// GET before and after contractions returns the byte-identical body, and
// neither it nor POST /contract scans the tensor for it again — shown by
// planting a fingerprint no tensor has and finding it in both answers.
func TestGetAnswersFromTheStoredFingerprint(t *testing.T) {
	s, url := orderServer(t, serverConfig{}, 12)
	before := getTensor(t, url, "yl")
	if fp := s.stored("yl").fp; fp.IsZero() || !strings.Contains(before, fp.String()) {
		t.Fatalf("PUT stored fingerprint %s, GET says %s", fp, before)
	}
	first := mustContract(t, url, reqLead)
	mustContract(t, url, reqTrail)
	for _, name := range []string{"x", "yl", "yt"} {
		holdsOneCopy(t, s, name)
	}
	if after := getTensor(t, url, "yl"); after != before {
		t.Errorf("GET /tensors/yl changed:\n before %s\n after  %s", before, after)
	}

	planted := engine.Fingerprint{Hi: 0xfeed, Lo: 0xface}
	s.mu.Lock()
	s.tensors["yl"] = &operand{t: s.tensors["yl"].t, fp: planted}
	s.mu.Unlock()
	if got := getTensor(t, url, "yl"); !strings.Contains(got, planted.String()) {
		t.Errorf("GET recomputed the fingerprint: %s", got)
	}
	// A plan is looked up under the stored fingerprint: the planted one has
	// none, so this request builds, and the next finds it.
	if rep := mustContract(t, url, reqLead); rep.HtYReused || replyKey(rep) != replyKey(first) {
		t.Errorf("POST /contract fingerprinted Y again (hty_reused %v) or changed its answer", rep.HtYReused)
	}
	if rep := mustContract(t, url, reqLead); !rep.HtYReused {
		t.Error("the plan built under the stored fingerprint was not found again")
	}
}

// TestKeptOrderReachesEveryTier: the sharded tier scatters X stably and the
// streamed tier permutes it by the same rule, so both find the kept order:
// after the first request nothing sorts, on the front or on a shard.
func TestKeptOrderReachesEveryTier(t *testing.T) {
	_, fresh := orderServer(t, serverConfig{}, 9)
	want := replyKey(mustContract(t, fresh, reqLead))

	sharded, shardedURL := orderServer(t, serverConfig{LocalShards: 2}, 9)
	if got := replyKey(mustContract(t, shardedURL, reqLead)); got != want {
		t.Errorf("sharded tier replied %s, want %s", got, want)
	}
	passes := sharded.radixPasses()
	if got := mustContract(t, shardedURL, reqLead); replyKey(got) != want || !got.XPrepared || passes == 0 || sharded.radixPasses() != passes {
		t.Errorf("second sharded request: reply %s (want %s), x_prepared %v, radix passes %d -> %d",
			replyKey(got), want, got.XPrepared, passes, sharded.radixPasses())
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
		if got := replyKey(rep); got != want {
			t.Errorf("streamed request %d replied %s, want %s", i, got, want)
		}
	}
	kept := holdsOneCopy(t, streamed, "x").t.SortableView()
	if err := kept.Permute([]int{2, 3, 0, 1}); err != nil {
		t.Fatal(err)
	}
	if !kept.IsSorted() {
		t.Error("the streamed tier did not leave X in contraction order")
	}
	windowsShareTheStoredRows(t, streamedURL, fresh, reqLeadOut, x.Bytes())
}

// windowsShareTheStoredRows fails the test unless a warm streamed request
// allocates less than half a copy of the stored X more than the same warm
// request on the DRAM tier: the windows are slices of the stored operand's
// prepared rows, where adapting the stored X into a window stream used to
// clone, permute and re-sort it on every request. req must permute its
// output, so that Z is not spilled: the spool's file buffers would swamp the
// comparison.
func windowsShareTheStoredRows(t *testing.T, streamedURL, dramURL string, req contractRequest, xBytes uint64) {
	t.Helper()
	allocOf := func(url, tier string) uint64 {
		t.Helper()
		mustContract(t, url, req) // X prepared, HtY cached
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		rep := mustContract(t, url, req)
		runtime.ReadMemStats(&m1)
		if rep.ExecutionTier != tier || !rep.XPrepared || !rep.HtYReused {
			t.Fatalf("%s: tier %q, x_prepared %v, hty_reused %v on a warm request", url, rep.ExecutionTier, rep.XPrepared, rep.HtYReused)
		}
		return m1.TotalAlloc - m0.TotalAlloc
	}
	dram, streamed := allocOf(dramURL, "dram"), allocOf(streamedURL, "streamed")
	t.Logf("warm request allocates %d B on the dram tier, %d B streamed; X is %d B", dram, streamed, xBytes)
	if streamed > dram+xBytes/2 {
		t.Errorf("a streamed request allocates %d B more than a dram one, X is %d B: the windows copy the stored rows",
			streamed-dram, xBytes)
	}
}
