package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sparta/internal/coo"
	"sparta/internal/core"
	"sparta/internal/gen"
)

// TestShardedLocalMode runs the same contraction through a plain server and
// a -local-shards server; the sharded reply must carry the identical output
// fingerprint (the serve-level face of the dist oracle suite).
func TestShardedLocalMode(t *testing.T) {
	_, plain := testServer(t, serverConfig{})
	_, sharded := testServer(t, serverConfig{LocalShards: 4})
	req := contractRequest{X: "demoA", Y: "demoB", Spec: "abc,cde->abde"}

	resp, want, _ := postContract(t, plain.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plain server: status %d", resp.StatusCode)
	}
	resp, got, bad := postContract(t, sharded.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sharded server: status %d: %s", resp.StatusCode, bad.Error)
	}
	if got.Fingerprint != want.Fingerprint || got.NNZ != want.NNZ {
		t.Errorf("sharded output differs: plain %s/%d, sharded %s/%d",
			want.Fingerprint, want.NNZ, got.Fingerprint, got.NNZ)
	}
	if got.ExecutionTier != "sharded" {
		t.Errorf("execution_tier = %q, want sharded", got.ExecutionTier)
	}
	if got.Shards < 1 || got.Shards > 4 {
		t.Errorf("reply claims %d shards", got.Shards)
	}

	// Warm pass: every shard's plan cache now holds the HtY.
	resp, warm, _ := postContract(t, sharded.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm sharded request: status %d", resp.StatusCode)
	}
	if !warm.HtYReused {
		t.Error("warm sharded request did not reuse the shards' HtY plans")
	}
	if warm.Fingerprint != want.Fingerprint {
		t.Errorf("warm sharded output drifted: %s != %s", warm.Fingerprint, want.Fingerprint)
	}
}

// TestShardedRemoteWorkers fans out across two real worker servers over HTTP:
// Y replicates via the binary PUT path, partitions flow through
// /shard/contract, and the merged output still matches the one-shot server.
func TestShardedRemoteWorkers(t *testing.T) {
	_, plain := testServer(t, serverConfig{})
	_, w1 := testServer(t, serverConfig{})
	_, w2 := testServer(t, serverConfig{})
	_, coord := testServer(t, serverConfig{ShardURLs: []string{w1.URL, w2.URL}})
	req := contractRequest{X: "demoA", Y: "demoB", Spec: "abc,cde->abde"}

	resp, want, _ := postContract(t, plain.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plain server: status %d", resp.StatusCode)
	}
	resp, got, bad := postContract(t, coord.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("coordinator: status %d: %s", resp.StatusCode, bad.Error)
	}
	if got.Fingerprint != want.Fingerprint || got.NNZ != want.NNZ {
		t.Errorf("remote-sharded output differs: plain %s/%d, sharded %s/%d",
			want.Fingerprint, want.NNZ, got.Fingerprint, got.NNZ)
	}
}

// TestShardedAllWorkersDown: a coordinator whose whole fleet is unreachable
// sheds with the named reason instead of hanging or 500ing.
func TestShardedAllWorkersDown(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // keep the URL, kill the listener
	_, coord := testServer(t, serverConfig{ShardURLs: []string{dead.URL}})
	resp, _, bad := postContract(t, coord.URL, contractRequest{X: "demoA", Y: "demoB", Spec: "abc,cde->abde"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("want 503 shed, got %d", resp.StatusCode)
	}
	if !strings.Contains(bad.Error, "attempts") {
		t.Errorf("shed reply does not name the shard failure: %q", bad.Error)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed reply lacks Retry-After")
	}
}

// TestShardWorkerEndpoint drives /shard/contract directly: binary X in,
// binary Z out, full core report in the X-Sptc-Report header.
func TestShardWorkerEndpoint(t *testing.T) {
	s, ts := testServer(t, serverConfig{})
	x := gen.Random([]uint64{20, 16}, 180, 5)
	y := gen.Random([]uint64{16, 12}, 120, 6)
	s.put("shardY", y)

	var body bytes.Buffer
	if err := x.WriteBin(&body); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/shard/contract?y=shardY&cx=1&cy=0&kernel=flat&threads=2",
		"application/x-sptn", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	z, err := coo.ReadBin(resp.Body)
	if err != nil {
		t.Fatalf("decoding Z: %v", err)
	}

	pr, err := core.PrepareY(y, []int{0}, core.Options{Algorithm: core.AlgSparta, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := pr.Contract(t.Context(), x, []int{1}, core.Options{Algorithm: core.AlgSparta, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !z.Equal(want) {
		t.Errorf("worker endpoint output differs from direct contraction (nnz %d vs %d)", z.NNZ(), want.NNZ())
	}

	var rep core.Report
	if hdr := resp.Header.Get("X-Sptc-Report"); hdr == "" {
		t.Error("no X-Sptc-Report header")
	} else if err := json.Unmarshal([]byte(hdr), &rep); err != nil {
		t.Errorf("bad X-Sptc-Report header: %v", err)
	} else if rep.NNZZ != z.NNZ() {
		t.Errorf("report NNZZ=%d, tensor has %d", rep.NNZZ, z.NNZ())
	} else if rep.HtYBuildWalls.Sum() <= 0 {
		t.Errorf("report lost the HtY build walls on the wire: %+v", rep.HtYBuildWalls)
	} else if rep.XPrepared || strings.Contains(hdr, "x_prepared") {
		t.Errorf("a shard's partition arrives with the request and is prepared by it; report says %s", hdr)
	}

	// Unknown Y and malformed modes fail cleanly.
	resp2, err := http.Post(ts.URL+"/shard/contract?y=nope&cx=1&cy=0", "application/x-sptn", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("unknown Y: status %d, want 404", resp2.StatusCode)
	}
	resp3, err := http.Post(ts.URL+"/shard/contract?y=shardY&cx=zap&cy=0", "application/x-sptn", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Errorf("bad cx: status %d, want 400", resp3.StatusCode)
	}
}

// TestBinaryTensorUpload: the PUT sniffer accepts a binary SPTN body (the
// dist executor's Y replication format) alongside FROSTT text.
func TestBinaryTensorUpload(t *testing.T) {
	s, ts := testServer(t, serverConfig{})
	y := gen.Random([]uint64{10, 8}, 60, 7)
	var body bytes.Buffer
	if err := y.WriteBin(&body); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/tensors/bin", &body)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary PUT: status %d", resp.StatusCode)
	}
	if got := s.stored("bin"); got == nil || !got.t.Equal(y) {
		t.Error("binary upload did not round-trip")
	}
}
