package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// defaultTransport is the shared connection pool every Client without
// an explicit HTTPClient uses. http.DefaultTransport keeps only two
// idle connections per host, so many concurrent callers of one daemon
// would churn through ephemeral ports; this transport keeps enough
// keep-alive connections per host for them all to be reused.
var defaultTransport = &http.Transport{
	Proxy:               http.ProxyFromEnvironment,
	MaxIdleConns:        256,
	MaxIdleConnsPerHost: 128,
	IdleConnTimeout:     90 * time.Second,
}

// defaultClient wraps the shared transport with the API's default
// request timeout. Shared across Clients: the connection pool is the
// point.
var defaultClient = &http.Client{Timeout: 30 * time.Second, Transport: defaultTransport}

// Client is the typed Go client of the ocd control-plane API. Server
// and client share this package's request/response structs, so a field
// added on one side is on the wire for both or fails to compile.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient overrides the transport (nil = the shared keep-alive
	// client with a 30 s timeout).
	HTTPClient *http.Client
}

// NewClient returns a client for the daemon at baseURL, using the
// shared keep-alive transport.
func NewClient(baseURL string) *Client {
	return &Client{
		BaseURL:    strings.TrimRight(baseURL, "/"),
		HTTPClient: defaultClient,
	}
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return defaultClient
}

// call POSTs req as JSON to path (or GETs when req is nil) and decodes
// the response into out. Non-2xx answers decode the ErrorResponse body
// into the returned error.
func (c *Client) call(ctx context.Context, method, path string, req, out any) error {
	var body io.Reader
	if req != nil {
		data, err := json.Marshal(req)
		if err != nil {
			return fmt.Errorf("api: encode %s: %w", path, err)
		}
		body = bytes.NewReader(data)
	}
	hreq, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, body)
	if err != nil {
		return fmt.Errorf("api: %s: %w", path, err)
	}
	if req != nil {
		hreq.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http().Do(hreq)
	if err != nil {
		return fmt.Errorf("api: %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var e ErrorResponse
		if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
			return fmt.Errorf("api: %s: %s (HTTP %d)", path, e.Error, resp.StatusCode)
		}
		return fmt.Errorf("api: %s: HTTP %d", path, resp.StatusCode)
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("api: decode %s: %w", path, err)
	}
	return nil
}

// Filter asks which servers can host the VM.
func (c *Client) Filter(ctx context.Context, req FilterRequest) (FilterResponse, error) {
	req.Vers = Version
	var out FilterResponse
	err := c.call(ctx, http.MethodPost, "/v1/filter", req, &out)
	return out, err
}

// Prioritize scores candidate servers for the VM.
func (c *Client) Prioritize(ctx context.Context, req PrioritizeRequest) (PrioritizeResponse, error) {
	req.Vers = Version
	var out PrioritizeResponse
	err := c.call(ctx, http.MethodPost, "/v1/prioritize", req, &out)
	return out, err
}

// Place binds a VM through the cluster packer.
func (c *Client) Place(ctx context.Context, req PlaceRequest) (PlaceResponse, error) {
	req.Vers = Version
	var out PlaceResponse
	err := c.call(ctx, http.MethodPost, "/v1/place", req, &out)
	return out, err
}

// Remove releases a VM by ID.
func (c *Client) Remove(ctx context.Context, req RemoveRequest) (RemoveResponse, error) {
	req.Vers = Version
	var out RemoveResponse
	err := c.call(ctx, http.MethodPost, "/v1/remove", req, &out)
	return out, err
}

// Overclock requests or cancels an overclock grant.
func (c *Client) Overclock(ctx context.Context, req OverclockGrantRequest) (OverclockDecision, error) {
	req.Vers = Version
	var out OverclockDecision
	err := c.call(ctx, http.MethodPost, "/v1/overclock", req, &out)
	return out, err
}

// Step advances the simulation in stepped time mode.
func (c *Client) Step(ctx context.Context, req StepRequest) (StepResponse, error) {
	req.Vers = Version
	var out StepResponse
	err := c.call(ctx, http.MethodPost, "/v1/step", req, &out)
	return out, err
}

// Status snapshots the fleet KPIs.
func (c *Client) Status(ctx context.Context) (FleetStatus, error) {
	var out FleetStatus
	err := c.call(ctx, http.MethodGet, "/v1/status", nil, &out)
	return out, err
}

// Healthz probes liveness.
func (c *Client) Healthz(ctx context.Context) error {
	return c.call(ctx, http.MethodGet, "/healthz", nil, nil)
}

// Metrics fetches the Prometheus text exposition.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.http().Do(hreq)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("api: /metrics: HTTP %d", resp.StatusCode)
	}
	return string(data), nil
}
