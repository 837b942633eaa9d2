package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"repro/internal/ckpt"
	"repro/internal/server"
)

// Peer names one cluster member: a stable node id (the ring key) and the
// base URL its API listens on. The self entry's URL may be empty.
type Peer struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

// Client is the HTTP client side of the peer protocol. One Client is shared
// by a node for all peers; the transport keeps per-host connection pools.
type Client struct {
	http         *http.Client
	probeTimeout time.Duration
}

// defaultProbeTimeout bounds one health probe when NewClient is given none;
// a Node's client always uses it.
const defaultProbeTimeout = time.Second

// NewClient returns a peer client. timeout bounds whole requests including
// the remote job execution; probeTimeout bounds one health probe (so a hung
// peer cannot stall probing for the full request budget). rt overrides the
// transport — the chaos fabric injects itself here; nil builds the standard
// pooled transport with a tight dial bound so a dead peer fails fast.
func NewClient(timeout, probeTimeout time.Duration, rt http.RoundTripper) *Client {
	if rt == nil {
		rt = &http.Transport{
			DialContext:         (&net.Dialer{Timeout: 2 * time.Second}).DialContext,
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     30 * time.Second,
		}
	}
	if probeTimeout <= 0 {
		probeTimeout = defaultProbeTimeout
	}
	return &Client{
		http:         &http.Client{Timeout: timeout, Transport: rt},
		probeTimeout: probeTimeout,
	}
}

// peerError classifies a failed peer call so the dispatcher can decide
// whether to charge the peer's breaker (transport faults and 5xx responses),
// count it toward quarantine (corrupt bytes), or just route around momentary
// pushback (429/503 load shedding).
type peerError struct {
	status    int // 0 for transport errors
	transport bool
	corrupt   bool // response failed an integrity check (digest, hash, envelope)
	msg       string
}

func (e *peerError) Error() string {
	switch {
	case e.corrupt:
		return "peer corrupt: " + e.msg
	case e.transport:
		return "peer transport: " + e.msg
	default:
		return fmt.Sprintf("peer status %d: %s", e.status, e.msg)
	}
}

// countsAgainstPeer reports whether the failure indicates peer ill-health.
func (e *peerError) countsAgainstPeer() bool {
	return e.corrupt || e.transport || e.status >= 500
}

// resultDigestHeader carries a SHA-256 over the canonical result bytes.
// Every peer path verifies it, so a single flipped byte anywhere on the wire
// is detected and charged to the sending peer instead of poisoning a sweep.
const resultDigestHeader = "X-Result-Digest"

// FetchResult asks baseURL for the cached result of a canonical job hash
// (GET /v1/peer/result/{hash}). wait > 0 lets the owner hold the request for
// an in-flight computation of the same hash. ok=false with nil error is a
// clean miss (the owner simply has not computed it).
func (c *Client) FetchResult(ctx context.Context, baseURL, hash string, wait time.Duration) (*server.Result, bool, error) {
	url := baseURL + "/v1/peer/result/" + hash
	if wait > 0 {
		url += "?wait_ms=" + strconv.FormatInt(wait.Milliseconds(), 10)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, false, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, false, &peerError{transport: true, msg: err.Error()}
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		res, err := decodeResult(resp, hash)
		if err != nil {
			return nil, false, err
		}
		return res, true, nil
	case http.StatusNotFound:
		io.Copy(io.Discard, resp.Body)
		return nil, false, nil
	default:
		return nil, false, readPeerError(resp)
	}
}

// Run executes a job on baseURL and waits for its result
// (POST /v1/peer/run). The body is the canonical result JSON, so results
// forwarded through any number of peers stay byte-identical. wantHash is the
// job's canonical hash; the response must carry it (a corrupt or confused
// peer answering for the wrong job is rejected like peer fills already are).
func (c *Client) Run(ctx context.Context, baseURL string, spec server.JobSpec, wantHash string) (*server.Result, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		baseURL+"/v1/peer/run", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, &peerError{transport: true, msg: err.Error()}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, readPeerError(resp)
	}
	return decodeResult(resp, wantHash)
}

// maxCkptBytes bounds a peer snapshot body. Snapshots are full system images
// of bounded simulations; 64MB is far past any realistic plan.
const maxCkptBytes = 64 << 20

// FetchCkpt asks baseURL for its durable snapshot of a canonical job hash
// (GET /v1/peer/ckpt/{hash}). The envelope is validated before the bytes are
// handed back, so a peer serving corrupt snapshots is charged rather than
// trusted. ok=false with nil error is a clean miss.
func (c *Client) FetchCkpt(ctx context.Context, baseURL, hash string) ([]byte, bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		baseURL+"/v1/peer/ckpt/"+hash, nil)
	if err != nil {
		return nil, false, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, false, &peerError{transport: true, msg: err.Error()}
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		// Read one byte past the bound: exactly maxCkptBytes+1 read means the
		// body was larger, which must be an explicit error — silently clipping
		// a snapshot would resume the job from torn state.
		snap, err := io.ReadAll(io.LimitReader(resp.Body, maxCkptBytes+1))
		if err != nil {
			return nil, false, &peerError{transport: true, msg: err.Error()}
		}
		if len(snap) > maxCkptBytes {
			return nil, false, &peerError{status: resp.StatusCode,
				msg: fmt.Sprintf("snapshot too large (over %d bytes)", maxCkptBytes)}
		}
		if _, err := ckpt.Open(snap); err != nil {
			return nil, false, &peerError{corrupt: true,
				msg: "snapshot failed envelope validation: " + err.Error()}
		}
		return snap, true, nil
	case http.StatusNotFound:
		io.Copy(io.Discard, resp.Body)
		return nil, false, nil
	default:
		return nil, false, readPeerError(resp)
	}
}

// HasCkpt asks baseURL whether it holds a snapshot for hash
// (HEAD /v1/peer/ckpt/{hash}) — the anti-entropy dedup probe, cheap enough
// to run for every locally held snapshot each repair pass.
func (c *Client) HasCkpt(ctx context.Context, baseURL, hash string) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodHead,
		baseURL+"/v1/peer/ckpt/"+hash, nil)
	if err != nil {
		return false, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return false, &peerError{transport: true, msg: err.Error()}
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	switch resp.StatusCode {
	case http.StatusOK, http.StatusNoContent:
		return true, nil
	case http.StatusNotFound:
		return false, nil
	default:
		return false, &peerError{status: resp.StatusCode, msg: resp.Status}
	}
}

// PushCkpt replicates a job snapshot to baseURL (PUT /v1/peer/ckpt/{hash}),
// where it lands in the peer's durable state dir. The receiver validates the
// envelope before storing.
func (c *Client) PushCkpt(ctx context.Context, baseURL, hash string, snap []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut,
		baseURL+"/v1/peer/ckpt/"+hash, bytes.NewReader(snap))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.http.Do(req)
	if err != nil {
		return &peerError{transport: true, msg: err.Error()}
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		return &peerError{status: resp.StatusCode, msg: resp.Status}
	}
	return nil
}

// FetchDashboard asks baseURL for its local dashboard contribution
// (GET /v1/dashboard/local): node metrics, verdict tallies, and per-stage
// latency distributions, feeding the fleet dashboard aggregation.
func (c *Client) FetchDashboard(ctx context.Context, baseURL string) (NodeDash, error) {
	var nd NodeDash
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		baseURL+"/v1/dashboard/local", nil)
	if err != nil {
		return nd, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nd, &peerError{transport: true, msg: err.Error()}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nd, readPeerError(resp)
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxResultBytes)).Decode(&nd); err != nil {
		return nd, &peerError{corrupt: true, status: resp.StatusCode,
			msg: "undecodable dashboard payload: " + err.Error()}
	}
	return nd, nil
}

// Health probes baseURL's /v1/healthz under the client's own probe timeout
// (one hung peer must not stall probing for the full peer-run budget),
// returning the status code and the probe round-trip time. A 503 from a
// draining or degraded node is a valid, readable answer.
func (c *Client) Health(ctx context.Context, baseURL string) (int, time.Duration, error) {
	ctx, cancel := context.WithTimeout(ctx, c.probeTimeout)
	defer cancel()
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/v1/healthz", nil)
	if err != nil {
		return 0, 0, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, time.Since(start), &peerError{transport: true, msg: err.Error()}
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, time.Since(start), nil
}

// decodeResult reads and parses a canonical result body, verifying the
// response digest (when sent) and the job hash (when the caller knows which
// job it asked for). Integrity failures come back as corrupt peerErrors so
// the dispatcher can quarantine the sender.
func decodeResult(resp *http.Response, wantHash string) (*server.Result, error) {
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxResultBytes+1))
	if err != nil {
		return nil, &peerError{transport: true, msg: "reading peer result: " + err.Error()}
	}
	if len(body) > maxResultBytes {
		return nil, &peerError{status: resp.StatusCode, msg: "peer result exceeds size bound"}
	}
	if want := resp.Header.Get(resultDigestHeader); want != "" {
		sum := sha256.Sum256(body)
		if got := hex.EncodeToString(sum[:]); got != want {
			return nil, &peerError{corrupt: true, status: resp.StatusCode,
				msg: fmt.Sprintf("result digest mismatch: body %.12s, header %.12s", got, want)}
		}
	}
	var res server.Result
	if err := json.Unmarshal(body, &res); err != nil {
		return nil, &peerError{corrupt: true, status: resp.StatusCode,
			msg: "undecodable peer result: " + err.Error()}
	}
	if wantHash != "" && res.Hash != wantHash {
		return nil, &peerError{corrupt: true, status: resp.StatusCode,
			msg: fmt.Sprintf("peer returned result for hash %.12s, want %.12s", res.Hash, wantHash)}
	}
	return &res, nil
}

// maxResultBytes bounds a peer result body; canonical results with full obs
// dumps run tens of KB, so 16MB is generous without being unbounded.
const maxResultBytes = 16 << 20

// readPeerError turns a non-OK peer response into a peerError, salvaging the
// JSON error message when present.
func readPeerError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	msg := string(bytes.TrimSpace(body))
	var eb struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &eb) == nil && eb.Error != "" {
		msg = eb.Error
	}
	return &peerError{status: resp.StatusCode, msg: msg}
}
