package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"

	"sparta/internal/coo"
	"sparta/internal/core"
	"sparta/internal/engine"
	"sparta/internal/obs"
)

// HTTPConfig sizes a remote shard executor.
type HTTPConfig struct {
	// Client is the HTTP client to use (nil = http.DefaultClient; supply
	// one with transport limits for production fleets).
	Client *http.Client
	// MaxInflight bounds concurrent requests to this worker (0 = unbounded).
	MaxInflight int
	// Threads overrides the fingerprint thread count for Y registration
	// (0 = the job's thread count).
	Threads int
}

// HTTP is a remote shard executor speaking to another sptc-serve instance:
// Y is uploaded once per content fingerprint as a binary SPTN tensor named
// "dist-<fp>" (the worker's plan cache then keeps its HtY warm), and each
// Contract POSTs the shard's X in binary to /shard/contract. The request ID
// from ctx's obs.ReqTrace propagates via X-Request-ID, so the worker's span
// tree and access-log line join the coordinator's under one ID.
type HTTP struct {
	base   string
	client *http.Client
	sem    chan struct{}

	mu       sync.Mutex
	uploaded map[string]bool // Y fingerprint -> registered on the worker
}

// NewHTTP builds a remote executor for a worker base URL
// (e.g. "http://10.0.0.7:8080").
func NewHTTP(base string, cfg HTTPConfig) *HTTP {
	h := &HTTP{
		base:     strings.TrimRight(base, "/"),
		client:   cfg.Client,
		uploaded: make(map[string]bool),
	}
	if h.client == nil {
		h.client = http.DefaultClient
	}
	if cfg.MaxInflight > 0 {
		h.sem = make(chan struct{}, cfg.MaxInflight)
	}
	return h
}

// Name implements Executor: the worker URL is the ring identity, so a fleet
// resize moves the minimal key range.
func (h *HTTP) Name() string { return h.base }

// Contract implements Executor.
func (h *HTTP) Contract(ctx context.Context, x, y *coo.Tensor, job Job) (*coo.Tensor, *core.Report, error) {
	if h.sem != nil {
		select {
		case h.sem <- struct{}{}:
			defer func() { <-h.sem }()
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
	fp := engine.FingerprintTensor(y, job.Options.Threads).String()
	yName, err := h.ensureY(ctx, fp, y)
	if err != nil {
		return nil, nil, err
	}

	q := url.Values{}
	q.Set("y", yName)
	q.Set("cx", modesCSV(job.CmodesX))
	q.Set("cy", modesCSV(job.CmodesY))
	if job.Options.Threads > 0 {
		q.Set("threads", strconv.Itoa(job.Options.Threads))
	}
	var body bytes.Buffer
	if err := x.WriteBin(&body); err != nil {
		return nil, nil, fmt.Errorf("dist: encoding shard X: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		h.base+"/shard/contract?"+q.Encode(), &body)
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/x-sptn")
	if id := obs.ReqFrom(ctx).ID(); id != "" {
		req.Header.Set("X-Request-ID", id)
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return nil, nil, fmt.Errorf("dist: worker %s: %w", h.base, err)
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("dist: worker %s: %s", h.base, readError(resp))
	}
	z, err := coo.ReadBin(resp.Body)
	if err != nil {
		return nil, nil, fmt.Errorf("dist: decoding worker %s reply: %w", h.base, err)
	}
	rep := &core.Report{}
	if hdr := resp.Header.Get("X-Sptc-Report"); hdr != "" {
		// A malformed report header degrades to an empty report; the tensor
		// is the contract, the report is advisory.
		_ = json.Unmarshal([]byte(hdr), rep)
	}
	return z, rep, nil
}

// ensureY registers Y on the worker under its content-fingerprint name,
// once per executor lifetime. The upload runs under the registration lock —
// concurrent shard legs sharing one Y then upload it exactly once.
func (h *HTTP) ensureY(ctx context.Context, fp string, y *coo.Tensor) (string, error) {
	name := "dist-" + fp
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.uploaded[fp] {
		return name, nil
	}
	var body bytes.Buffer
	if err := y.WriteBin(&body); err != nil {
		return "", fmt.Errorf("dist: encoding Y: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPut,
		h.base+"/tensors/"+url.PathEscape(name), &body)
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/x-sptn")
	resp, err := h.client.Do(req)
	if err != nil {
		return "", fmt.Errorf("dist: registering Y on %s: %w", h.base, err)
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("dist: registering Y on %s: %s", h.base, readError(resp))
	}
	h.uploaded[fp] = true
	return name, nil
}

// Close implements Executor.
func (h *HTTP) Close() error {
	h.client.CloseIdleConnections()
	return nil
}

// modesCSV renders a contract-mode list for the query string.
func modesCSV(modes []int) string {
	var b strings.Builder
	for i, m := range modes {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(m))
	}
	return b.String()
}

// ParseModesCSV parses the query-string form back ("" = empty list). Shared
// with the worker endpoint in sptc-serve.
func ParseModesCSV(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	modes := make([]int, len(parts))
	for i, p := range parts {
		m, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad mode list %q: %w", s, err)
		}
		modes[i] = m
	}
	return modes, nil
}

// readError extracts a worker error body ({"error": "..."} or plain text),
// truncated for log hygiene.
func readError(resp *http.Response) string {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var er struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(raw, &er) == nil && er.Error != "" {
		return fmt.Sprintf("status %d: %s", resp.StatusCode, er.Error)
	}
	msg := strings.TrimSpace(string(raw))
	if msg == "" {
		msg = resp.Status
	}
	return fmt.Sprintf("status %d: %s", resp.StatusCode, msg)
}

// drainClose consumes what remains of a response body so the connection can
// be reused, then closes it.
func drainClose(rc io.ReadCloser) {
	_, _ = io.Copy(io.Discard, io.LimitReader(rc, 1<<20))
	_ = rc.Close()
}
