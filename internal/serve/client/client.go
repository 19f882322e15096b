// Package client is the Go client for the pscd compilation service: typed
// wrappers over the /v1 HTTP/JSON endpoints of internal/serve. The load
// generator (cmd/pscload), the integration tests, and future coordinator
// processes (the distributed verification farm) all speak to the daemon
// through this package.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/serve"
)

// Client talks to one pscd instance.
type Client struct {
	base string
	http *http.Client
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the transport (tests use the httptest
// server's client; the default has sane timeouts for a local daemon).
func WithHTTPClient(h *http.Client) Option {
	return func(c *Client) { c.http = h }
}

// New creates a client for the daemon at baseURL (e.g.
// "http://127.0.0.1:8642").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base: strings.TrimRight(baseURL, "/"),
		http: &http.Client{Timeout: 5 * time.Minute},
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// APIError is a non-2xx answer from the daemon.
type APIError struct {
	Status  int
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("pscd: %d: %s", e.Status, e.Message)
}

// IsTimeout reports whether err is the daemon's request-deadline answer.
func IsTimeout(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Status == http.StatusGatewayTimeout
}

// IsDraining reports whether err is the daemon's shutting-down answer.
func IsDraining(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Status == http.StatusServiceUnavailable
}

func (c *Client) post(ctx context.Context, path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	return c.do(hreq, resp)
}

func (c *Client) do(hreq *http.Request, resp any) error {
	hresp, err := c.http.Do(hreq)
	if err != nil {
		return err
	}
	defer hresp.Body.Close()
	data, err := serve.ReadSized(hresp.Body, hresp.ContentLength)
	if err != nil {
		return err
	}
	if hresp.StatusCode/100 != 2 {
		var e struct {
			Error string `json:"error"`
		}
		msg := strings.TrimSpace(string(data))
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			msg = e.Error
		}
		return &APIError{Status: hresp.StatusCode, Message: msg}
	}
	return json.Unmarshal(data, resp)
}

// Compile submits a compile request.
func (c *Client) Compile(ctx context.Context, req *serve.CompileRequest) (*serve.CompileResponse, error) {
	var resp serve.CompileResponse
	if err := c.post(ctx, "/v1/compile", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Analyze submits an analyze request.
func (c *Client) Analyze(ctx context.Context, req *serve.AnalyzeRequest) (*serve.AnalyzeResponse, error) {
	var resp serve.AnalyzeResponse
	if err := c.post(ctx, "/v1/analyze", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Verify submits a verify request.
func (c *Client) Verify(ctx context.Context, req *serve.VerifyRequest) (*serve.VerifyResponse, error) {
	var resp serve.VerifyResponse
	if err := c.post(ctx, "/v1/verify", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Stats fetches the daemon's counters.
func (c *Client) Stats(ctx context.Context) (*serve.StatsResponse, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	var resp serve.StatsResponse
	if err := c.do(hreq, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Healthy reports whether the daemon answers its health check.
func (c *Client) Healthy(ctx context.Context) bool {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return false
	}
	hresp, err := c.http.Do(hreq)
	if err != nil {
		return false
	}
	_, _ = io.Copy(io.Discard, hresp.Body)
	hresp.Body.Close()
	return hresp.StatusCode == http.StatusOK
}
