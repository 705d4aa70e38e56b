// Package serverclient is the Go client for the smoked HTTP API
// (internal/server) and the one owner of its wire contract. Every JSON
// shape the API speaks — query and trace requests, consuming aggregates,
// results, sessions, and the uniform error body — is a single Go type here:
// the server encodes its replies from these types, and this client and the
// shard coordinator (internal/shard) decode them through the one reply
// decoder, Decode. A field added to a shape therefore reaches every speaker
// at compile time instead of drifting between copies. The package imports
// only the standard library.
package serverclient

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Client talks to one smoked server.
type Client struct {
	base string
	http *http.Client
}

// New returns a client for the server at base (e.g. "http://127.0.0.1:8080").
// httpClient may be nil for http.DefaultClient.
func New(base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(base, "/"), http: httpClient}
}

// Error is a non-2xx server reply, decoded from the uniform error body.
type Error struct {
	Status  int    // HTTP status code
	Kind    string // serr kind string ("invalid", "gone", ...)
	Message string
	Pos     int // byte offset into the SQL text, -1 if absent
	// Structured is false when the body was not the uniform error shape;
	// Kind is then "internal" and Message holds the raw body.
	Structured bool
}

func (e *Error) Error() string {
	return fmt.Sprintf("server: %d %s: %s", e.Status, e.Kind, e.Message)
}

// ErrorBody is the uniform error reply body.
type ErrorBody struct {
	Error struct {
		Kind    string `json:"kind"`
		Message string `json:"message"`
		Pos     *int   `json:"pos,omitempty"` // byte offset into the SQL text
	} `json:"error"`
}

// Field is one schema field.
type Field struct {
	Name string `json:"name"`
	Type string `json:"type"` // "int" | "float" | "string"
}

// Result is the reply of every query, trace, and retained-result endpoint.
// Decoded row values are normalized by column type: int64, float64, or
// string.
type Result struct {
	Columns []string `json:"columns"`
	Types   []string `json:"types"`
	Rows    [][]any  `json:"rows"`
	N       int      `json:"row_count"`
	// GroupCounts is the input cardinality of each output group on group-by
	// results. The shard coordinator merges per-shard partial aggregates
	// through it (AVG reweighting needs the partial group sizes).
	GroupCounts []int64 `json:"group_counts,omitempty"`
	Cached      bool    `json:"cached,omitempty"`
	Explain     string  `json:"explain,omitempty"`
	// Retained echoes the name a result was stored under in the session.
	Retained string `json:"retained,omitempty"`
	// StrategyUsed echoes the lineage path that answered this request
	// ("eager", "lazy", "hybrid") when the request selected a strategy or a
	// trace was routed through a non-eager path.
	StrategyUsed string `json:"strategy_used,omitempty"`
}

// QueryRequest is the body of POST /v1/query and POST
// /v1/sessions/{id}/results/{name}.
type QueryRequest struct {
	SQL string `json:"sql"`
	// Capture is "none", "inject", or "defer". /v1/query defaults to none;
	// retained results default to inject (a capture is the point of
	// retaining) unless Strategy is "lazy".
	Capture  string         `json:"capture,omitempty"`
	Compress bool           `json:"compress,omitempty"`
	Params   map[string]any `json:"params,omitempty"`
	// Strategy is "eager", "lazy", "hybrid", or "auto" (empty keeps the
	// capture-mode default). Lazy retains no indexes: traces re-execute the
	// stored plan. Conflicting capture/strategy combinations are 400s.
	Strategy string `json:"strategy,omitempty"`
}

// TraceRequest is the body of POST /v1/sessions/{id}/results/{name}/trace:
// a bound backward/forward trace of the retained result, optionally
// filtered and re-aggregated (the consuming query), optionally retained
// under a new name for further chained traces.
type TraceRequest struct {
	// Direction is "backward" or "forward".
	Direction string `json:"direction"`
	// Table is the base relation to trace into (backward) or from (forward).
	Table string `json:"table"`
	// Rids seeds the trace with explicit rids (output rids for backward,
	// base rids for forward). Mutually exclusive with SeedWhere. It carries
	// no omitempty on purpose: nil traces everything, while a present but
	// empty list is an explicit zero-seed trace and must reach the server.
	Rids []int64 `json:"rids"`
	// SeedWhere seeds the trace by predicate (SQL expression syntax) over
	// the result's output rows (backward) or the base rows (forward).
	SeedWhere string `json:"seed_where,omitempty"`
	// Where filters the traced rows during rid-list expansion.
	Where string `json:"where,omitempty"`
	// GroupBy + Aggs build a consuming aggregation over the traced rows;
	// empty GroupBy returns the traced rows themselves.
	GroupBy []string `json:"group_by,omitempty"`
	Aggs    []Agg    `json:"aggs,omitempty"`

	Capture  string         `json:"capture,omitempty"`
	Compress bool           `json:"compress,omitempty"`
	Params   map[string]any `json:"params,omitempty"`
	// Retain stores the trace result under this name in the same session
	// (consuming results are base queries for further traces, §2.1).
	Retain string `json:"retain,omitempty"`
	// Strategy forces the trace's answer path: "eager" requires the captured
	// index (400 when the result has none), "lazy" forces plan re-execution.
	// Empty or "auto" keeps the result's own routing; "hybrid" is a
	// capture-time split, not a per-trace path, and is a 400 here. The
	// response echoes the path taken in "strategy_used".
	Strategy string `json:"strategy,omitempty"`
}

// Agg is one consuming aggregate.
type Agg struct {
	Fn   string `json:"fn"`            // count, sum, avg, min, max, count_distinct
	Arg  string `json:"arg,omitempty"` // SQL expression; empty for count
	Name string `json:"name,omitempty"`
}

// SessionInfo is the reply of POST /v1/sessions.
type SessionInfo struct {
	ID  string `json:"id"`
	TTL int    `json:"ttl_seconds"`
}

// Health pings the server and returns its status map.
func (c *Client) Health(ctx context.Context) (map[string]any, error) {
	var out map[string]any
	err := c.do(ctx, http.MethodGet, "/healthz", nil, &out)
	return out, err
}

// CreateTable registers (or replaces) a table from schema + rows. pk may be
// "" for no primary key.
func (c *Client) CreateTable(ctx context.Context, name string, schema []Field, rows [][]any, pk string) error {
	body := map[string]any{"schema": schema, "rows": rows}
	if pk != "" {
		body["pk"] = pk
	}
	return c.do(ctx, http.MethodPost, "/v1/tables/"+name, body, nil)
}

// CreateTableDist is CreateTable with an explicit placement against a
// sharded smoked (-shards N): dist "shard" partitions the rows by rid range
// across the shards, dist "replicate" (or "") registers a full copy on every
// shard. A single-node server ignores the parameter.
func (c *Client) CreateTableDist(ctx context.Context, name string, schema []Field, rows [][]any, pk, dist string) error {
	body := map[string]any{"schema": schema, "rows": rows}
	if pk != "" {
		body["pk"] = pk
	}
	path := "/v1/tables/" + name
	if dist != "" {
		path += "?dist=" + dist
	}
	return c.do(ctx, http.MethodPost, path, body, nil)
}

// CreateTableCSV registers a table from CSV bytes (header record first).
// types is "int,float,..." per column, or "" to sniff.
func (c *Client) CreateTableCSV(ctx context.Context, name string, csvBody []byte, types, pk string) error {
	path := "/v1/tables/" + name
	sep := "?"
	if types != "" {
		path += sep + "types=" + types
		sep = "&"
	}
	if pk != "" {
		path += sep + "pk=" + pk
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(csvBody))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "text/csv")
	return c.roundTrip(req, nil)
}

// Query runs one stateless SQL statement (including EXPLAIN and unbound
// LINEAGE sources).
func (c *Client) Query(ctx context.Context, req QueryRequest) (*Result, error) {
	var out Result
	if err := c.do(ctx, http.MethodPost, "/v1/query", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Session is a server-side session handle.
type Session struct {
	ID  string
	ttl int
	c   *Client
}

// Session returns a handle for an existing session id (e.g. one persisted by
// a previous process). No server round-trip is made; a dead id surfaces as
// 410/404 on first use.
func (c *Client) Session(id string) *Session { return &Session{ID: id, c: c} }

// NewSession opens a session.
func (c *Client) NewSession(ctx context.Context) (*Session, error) {
	var out SessionInfo
	if err := c.do(ctx, http.MethodPost, "/v1/sessions", struct{}{}, &out); err != nil {
		return nil, err
	}
	return &Session{ID: out.ID, ttl: out.TTL, c: c}, nil
}

// TTLSeconds is the server's idle-session TTL at creation time.
func (s *Session) TTLSeconds() int { return s.ttl }

// Close deletes the session and every retained result in it.
func (s *Session) Close(ctx context.Context) error {
	return s.c.do(ctx, http.MethodDelete, "/v1/sessions/"+s.ID, nil, nil)
}

// Run executes a statement and retains its Result (with live capture) under
// name; later Trace calls bind to it.
func (s *Session) Run(ctx context.Context, name string, req QueryRequest) (*Result, error) {
	var out Result
	if err := s.c.do(ctx, http.MethodPost, s.path(name), req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Result fetches a retained result's rows.
func (s *Session) Result(ctx context.Context, name string) (*Result, error) {
	var out Result
	if err := s.c.do(ctx, http.MethodGet, s.path(name), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Trace runs a bound backward/forward trace against the retained result.
func (s *Session) Trace(ctx context.Context, name string, req TraceRequest) (*Result, error) {
	var out Result
	if err := s.c.do(ctx, http.MethodPost, s.path(name)+"/trace", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

func (s *Session) path(name string) string {
	return "/v1/sessions/" + s.ID + "/results/" + name
}

// do sends a JSON request and decodes a JSON reply (out may be nil).
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return c.roundTrip(req, out)
}

func (c *Client) roundTrip(req *http.Request, out any) error {
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 256<<20))
	if err != nil {
		return err
	}
	return Decode(resp.StatusCode, data, out)
}

// Decode decodes one smoked reply; the client and the shard coordinator
// share it. A status of 300 or more yields an *Error decoded from the
// uniform error body. Otherwise body decodes into out (nil skips it) with
// UseNumber, and a *Result is normalized, so int64 values beyond 2^53
// survive exactly.
func Decode(status int, body []byte, out any) error {
	if status >= 300 {
		e := &Error{Status: status, Kind: "internal", Message: string(body), Pos: -1}
		var eb ErrorBody
		if json.Unmarshal(body, &eb) == nil && eb.Error.Kind != "" {
			e.Kind, e.Message, e.Structured = eb.Error.Kind, eb.Error.Message, true
			if eb.Error.Pos != nil {
				e.Pos = *eb.Error.Pos
			}
		}
		return e
	}
	if out == nil {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	if err := dec.Decode(out); err != nil {
		return err
	}
	if r, ok := out.(*Result); ok {
		r.normalize()
	}
	return nil
}

// normalize converts row values to their column's Go type: json.Number →
// int64/float64 per the Types list, so callers compare values without
// float64 precision loss on large ints.
func (r *Result) normalize() {
	for _, row := range r.Rows {
		for c := range row {
			n, ok := row[c].(json.Number)
			if !ok || c >= len(r.Types) {
				continue
			}
			switch r.Types[c] {
			case "int":
				if v, err := n.Int64(); err == nil {
					row[c] = v
				}
			case "float":
				if v, err := n.Float64(); err == nil {
					row[c] = v
				}
			}
		}
	}
}
