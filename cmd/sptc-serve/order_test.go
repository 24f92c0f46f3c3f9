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
	// yb has X's shape, so both of X's mode pairs contract with it: the two
	// specs switch X's order and Y's contract modes together.
	specBothLead  = "abcd,abef->cdef"
	specBothTrail = "abcd,efcd->abef"
)

func drawTensor(rng *rand.Rand, dims []uint64, nnz int) *coo.Tensor {
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

func orderTensors(seed int64) (x, yLead, yTrail *coo.Tensor) {
	rng := rand.New(rand.NewSource(seed))
	x = drawTensor(rng, []uint64{12, 9, 14, 6}, 6000) // 9072 cells: about a third of the rows repeat a coordinate
	return x, drawTensor(rng, []uint64{12, 9, 7}, 400), drawTensor(rng, []uint64{14, 6, 5}, 300)
}

// yBoth is the yb that orderServer stores beside orderTensors(seed).
func yBoth(seed int64) *coo.Tensor {
	return drawTensor(rand.New(rand.NewSource(-seed)), []uint64{12, 9, 14, 6}, 400)
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

// orderServer is a server holding x, yLead and yTrail of orderTensors(seed)
// as x, yl and yt, and yBoth(seed) as yb.
func orderServer(t *testing.T, cfg serverConfig, seed int64) (*server, string) {
	t.Helper()
	s, ts := testServer(t, cfg)
	x, yl, yt := orderTensors(seed)
	putTensor(t, ts.URL, "x", x)
	putTensor(t, ts.URL, "yl", yl)
	putTensor(t, ts.URL, "yt", yt)
	putTensor(t, ts.URL, "yb", yBoth(seed))
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

func (s *server) yPrepared(outcome string) uint64 {
	return s.reg.Counter("sptc_serve_y_prepared_total", "", "outcome", outcome).Value()
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
	reqLeadOut   = contractRequest{X: "x", Y: "yl", Spec: "abcd,abe->ecd"}
	reqBothLead  = contractRequest{X: "x", Y: "yb", Spec: specBothLead}
	reqBothTrail = contractRequest{X: "x", Y: "yb", Spec: specBothTrail}
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

// TestAlternatingSpecsStayCorrect: specs that want different orders of one X
// and different contract modes of one Y take turns. The store keeps one
// prepared form of each per name, so each switch prepares what the other
// left — X's rows and Y's table alike — while a Y always asked for the same
// modes keeps its table across the X switches. Every reply is the fresh
// server's, and — the forms being swapped in, not added — live memory does
// not grow with the number of switches.
func TestAlternatingSpecsStayCorrect(t *testing.T) {
	specs := []contractRequest{reqLead, reqTrail, reqBothLead, reqBothTrail}
	_, fresh := orderServer(t, serverConfig{}, 6)
	want := map[string]string{}
	for _, req := range specs {
		want[req.Spec] = replyKey(mustContract(t, fresh, req))
	}
	s, url := orderServer(t, serverConfig{}, 6)
	round := func(i int) {
		t.Helper()
		for _, req := range specs {
			got := mustContract(t, url, req)
			reused := i > 0 && req.Y != "yb" // yb's two specs contract different modes
			if replyKey(got) != want[req.Spec] || got.XPrepared || got.HtYReused != reused {
				t.Errorf("round %d, %s: replied %s (x_prepared %v, hty_reused %v), want %s from a fresh X prepare and hty_reused %v",
					i, req.Spec, replyKey(got), got.XPrepared, got.HtYReused, want[req.Spec], reused)
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
	const warmup, more = 3, 12
	for i := 0; i < warmup; i++ {
		round(i)
	}
	before := liveHeap()
	for i := warmup; i < warmup+more; i++ {
		round(i)
	}
	// A copy leaked per switch would be 2 × more × (X + yb's table); allow
	// two for noise.
	x, py := s.stored("x").t.Bytes(), s.stored("yb").py.Bytes()
	if after := liveHeap(); after > before+2*(x+py) {
		t.Errorf("live heap grew %d B over %d switches of a %d B X and a %d B table of Y", after-before, 2*more, x, py)
	}
	if hit := s.xPrepared("hit"); hit != 0 {
		t.Errorf("%d alternating requests counted as prepared-X hits", hit)
	}
	const rounds = warmup + more
	if hit, miss := s.yPrepared("hit"), s.yPrepared("miss"); hit != 2*(rounds-1) || miss != 2+2*rounds {
		t.Errorf("sptc_serve_y_prepared_total: %d hits, %d misses, want %d and %d", hit, miss, 2*(rounds-1), 2+2*rounds)
	}
}

// TestKeptOrderNeverResurrectsAReplacedTensor races eight requests on one X
// and one Y (two specs, so they prepare each other's order of X) against a
// storm of PUTs that replace both. Every swap into the store is conditional
// on the operand the request read, so whatever the interleaving every reply
// is right for the tensors it read, and the store ends up holding the last
// PUTs' tensors with no prepared form of a replaced one beside them: the
// next request answers for the last tensors. The deterministic half pins the
// interleaving that matters: a PUT lands while a request is in flight.
func TestKeptOrderNeverResurrectsAReplacedTensor(t *testing.T) {
	seeds := []int64{7, 8}
	xs, yls := map[int64]*coo.Tensor{}, map[int64]*coo.Tensor{}
	for _, seed := range seeds {
		xs[seed], yls[seed], _ = orderTensors(seed)
	}
	expect, last := map[string]bool{}, ""
	for _, sx := range seeds {
		for _, sy := range seeds {
			_, fresh := orderServer(t, serverConfig{}, 7)
			putTensor(t, fresh, "x", xs[sx])
			putTensor(t, fresh, "yl", yls[sy])
			last = replyKey(mustContract(t, fresh, reqLead))
			expect[last] = true
			expect[replyKey(mustContract(t, fresh, reqTrail))] = true
		}
	}

	s, url := orderServer(t, serverConfig{}, 7)
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
				t.Errorf("request %d replied %s, which no stored pair of tensors gives", i, got)
			}
		}(i)
	}
	for i := 0; i < 6; i++ { // ends on seed 8, the last pair expect saw
		seed := seeds[i%2]
		putTensor(t, url, "x", xs[seed])
		putTensor(t, url, "yl", yls[seed])
	}
	wg.Wait()
	for name, want := range map[string]*coo.Tensor{"x": xs[8], "yl": yls[8]} {
		if got := holdsOneCopy(t, s, name); got.fp != engine.FingerprintTensor(want, 1) {
			t.Errorf("the store holds a prepared copy of an %s the PUTs replaced", name)
		}
	}
	if got := replyKey(mustContract(t, url, reqLead)); got != last {
		t.Errorf("after the storm the server replied %s, the last PUTs give %s: a replaced table survived", got, last)
	}

	// A request reads the operand, a PUT replaces it, the request prepares
	// what it read: the PUT wins, and the request still gets its own rows.
	putTensor(t, url, "x", xs[7])
	read := s.stored("x")
	putTensor(t, url, "x", xs[8])
	put := s.stored("x")
	kept, hit, err := s.preparedX(context.Background(), "x", read, []int{0, 1}, core.Options{Threads: 2})
	if err != nil || hit {
		t.Fatalf("preparedX: hit %v, %v", hit, err)
	}
	if engine.FingerprintTensor(kept.px.Tensor(), 1) != read.fp {
		t.Error("the in-flight request was handed rows of a tensor it did not read")
	}
	if s.stored("x") != put || put.px != nil || put.fp != engine.FingerprintTensor(xs[8], 1) {
		t.Error("a prepared form of the replaced X survived the PUT")
	}

	// The same for Y: the request's table is the Y it read, and the PUT's
	// operand holds none.
	putTensor(t, url, "yl", yls[7])
	readY := s.stored("yl")
	putTensor(t, url, "yl", yls[8])
	putY := s.stored("yl")
	opt := core.Options{Threads: 2}
	py, err := s.preparedY(context.Background(), "yl", readY, []int{0, 1}, opt)
	if err != nil {
		t.Fatal(err)
	}
	own, err := core.PrepareY(yls[7], []int{0, 1}, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := py.Contract(context.Background(), xs[7], []int{0, 1}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if want, _, err := own.Contract(context.Background(), xs[7], []int{0, 1}, opt); err != nil || !got.Equal(want) {
		t.Errorf("the in-flight request was handed a table of a Y it did not read (%v)", err)
	}
	if s.stored("yl") != putY || putY.py != nil {
		t.Error("a prepared table of the replaced Y survived the PUT")
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
	// Y's table lives on the stored operand, not under its fingerprint: the
	// planted operand has none, so this request builds it, and the next
	// finds it.
	if rep := mustContract(t, url, reqLead); rep.HtYReused || replyKey(rep) != replyKey(first) {
		t.Errorf("POST /contract found a table the operand does not hold (hty_reused %v) or changed its answer", rep.HtYReused)
	}
	if rep := mustContract(t, url, reqLead); !rep.HtYReused {
		t.Error("the table the last request built was not kept on the operand")
	}
}

// TestKeptOrderReachesEveryTier: the sharded tier scatters X stably and the
// streamed tier permutes it by the same rule, so both find the kept order:
// after the first request nothing sorts, on the front or on a shard.
func TestKeptOrderReachesEveryTier(t *testing.T) {
	_, fresh := orderServer(t, serverConfig{}, 9)
	want := replyKey(mustContract(t, fresh, reqLead))

	w1, w1s := testServer(t, serverConfig{})
	w2, w2s := testServer(t, serverConfig{})
	sharded, shardedURL := orderServer(t, serverConfig{ShardURLs: []string{w1s.URL, w2s.URL}}, 9)
	if got := replyKey(mustContract(t, shardedURL, reqLead)); got != want {
		t.Errorf("sharded tier replied %s, want %s", got, want)
	}
	passes := func() [3]uint64 { return [3]uint64{sharded.radixPasses(), w1.radixPasses(), w2.radixPasses()} }
	first := passes()
	if got := mustContract(t, shardedURL, reqLead); replyKey(got) != want || !got.XPrepared || first[0] == 0 || passes() != first {
		t.Errorf("second sharded request: reply %s (want %s), x_prepared %v, radix passes (front, workers) %v -> %v",
			replyKey(got), want, got.XPrepared, first, passes())
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
