package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"smoke/internal/serverclient"
	"smoke/internal/storage"
)

// client issues every request through serverclient. Its transport reads
// each reply body in full and times that, so one timed call splits into the
// HTTP round trip (request sent to last body byte) and serverclient's own
// work around it (request encode, reply decode and value normalisation).
type client struct {
	base string
	http *http.Client // the timed transport; ingest uses it directly
	sc   *serverclient.Client
}

func newClient(base string, hc *http.Client) *client {
	next := hc.Transport
	if next == nil {
		next = http.DefaultTransport
	}
	timed := &http.Client{Transport: timedTransport{next}}
	return &client{base: base, http: timed, sc: serverclient.New(base, timed)}
}

// probe is what the transport saw of one request.
type probe struct {
	status int
	bytes  int
	httpNs int64
}

type probeKey struct{}

// timedTransport records the round trip of a request whose context carries
// a *probe. It reads the whole body before returning, so the recorded time
// ends at the last byte and the caller decodes from memory.
type timedTransport struct{ next http.RoundTripper }

func (t timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	pr, _ := req.Context().Value(probeKey{}).(*probe)
	t0 := time.Now()
	resp, err := t.next.RoundTrip(req)
	if err != nil || pr == nil {
		return resp, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(data))
	pr.status, pr.bytes, pr.httpNs = resp.StatusCode, len(data), time.Since(t0).Nanoseconds()
	return resp, nil
}

// reply is one timed request. err is non-nil for a transport error, a
// non-2xx status or an undecodable body; each counts as a failed request.
type reply struct {
	res      *serverclient.Result
	status   int // 0 when no reply arrived
	bytes    int
	rootNs   int64 // the whole serverclient call
	httpNs   int64 // round trip, body fully read
	decodeNs int64 // root - round trip: serverclient's encode and decode
	err      error
}

// call times one serverclient call f.
func (c *client) call(ctx context.Context, f func(context.Context) (*serverclient.Result, error)) reply {
	pr := &probe{}
	ctx = context.WithValue(ctx, probeKey{}, pr)
	t0 := time.Now()
	res, err := f(ctx)
	root := time.Since(t0).Nanoseconds()
	return reply{res: res, status: pr.status, bytes: pr.bytes, rootNs: root,
		httpNs: pr.httpNs, decodeNs: root - pr.httpNs, err: err}
}

// do sends step st in session s: a query retains its result under the
// step's view, a trace traces that view.
func (c *client) do(ctx context.Context, s *serverclient.Session, st step) reply {
	return c.call(ctx, func(ctx context.Context) (*serverclient.Result, error) {
		if st.kind == stepQuery {
			return s.Run(ctx, st.view, st.query)
		}
		return s.Trace(ctx, st.view, st.trace)
	})
}

// open opens a session (nil when the request failed).
func (c *client) open(ctx context.Context) (*serverclient.Session, reply) {
	var s *serverclient.Session
	r := c.call(ctx, func(ctx context.Context) (res *serverclient.Result, err error) {
		s, err = c.sc.NewSession(ctx)
		return nil, err
	})
	return s, r
}

// close deletes session s.
func (c *client) close(ctx context.Context, s *serverclient.Session) reply {
	return c.call(ctx, func(ctx context.Context) (*serverclient.Result, error) {
		return nil, s.Close(ctx)
	})
}

// counter reads one numeric /healthz field (0 when absent).
func counter(h map[string]any, k string) float64 {
	switch v := h[k].(type) {
	case float64:
		return v
	case json.Number:
		f, _ := v.Float64()
		return f
	}
	return 0
}

// shardCalls sums the per-shard call counters a coordinator reports.
func shardCalls(h map[string]any) float64 {
	per, _ := h["per_shard"].([]any)
	total := 0.0
	for _, p := range per {
		if m, ok := p.(map[string]any); ok {
			total += counter(m, "calls")
		}
	}
	return total
}

// ingestCSV posts rel to the server as CSV with explicit column types.
// Floats are written in their shortest exact form, so the server parses
// back the very values the reference relation holds.
func ingestCSV(ctx context.Context, c *client, rel *storage.Relation, pk, dist string) error {
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	rec := make([]string, len(rel.Schema))
	types := ""
	for i, f := range rel.Schema {
		rec[i] = f.Name
		if i > 0 {
			types += ","
		}
		types += strings.ToLower(f.Type.String())
	}
	if err := w.Write(rec); err != nil {
		return err
	}
	for r := 0; r < rel.N; r++ {
		for i, f := range rel.Schema {
			switch f.Type {
			case storage.TInt:
				rec[i] = strconv.FormatInt(rel.Int(i, r), 10)
			case storage.TFloat:
				rec[i] = strconv.FormatFloat(rel.Float(i, r), 'g', -1, 64)
			default:
				rec[i] = rel.Str(i, r)
			}
		}
		if err := w.Write(rec); err != nil {
			return err
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return err
	}
	path := rel.Name + "?types=" + types
	if pk != "" {
		path += "&pk=" + pk
	}
	if dist != "" {
		path += "&dist=" + dist
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/tables/"+path, &buf)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "text/csv")
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("ingest %s: %w", rel.Name, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("ingest %s: status %d: %s", rel.Name, resp.StatusCode, bytes.TrimSpace(body))
	}
	return nil
}

// diffServed compares a served result against in-process execution element
// for element: ints and strings exactly, floats to 1e-9 relative (the
// tolerance of the serve experiment in internal/bench, which absorbs
// last-ulp drift from a different partial-sum order).
func diffServed(got *serverclient.Result, want *storage.Relation) error {
	if got.N != want.N || len(got.Rows) != want.N {
		return fmt.Errorf("rows: %d, want %d", got.N, want.N)
	}
	if len(got.Columns) != len(want.Schema) {
		return fmt.Errorf("columns: %d, want %d", len(got.Columns), len(want.Schema))
	}
	for i := 0; i < want.N; i++ {
		if len(got.Rows[i]) != len(want.Schema) {
			return fmt.Errorf("row %d has %d values, want %d", i, len(got.Rows[i]), len(want.Schema))
		}
		for c, f := range want.Schema {
			switch f.Type {
			case storage.TInt:
				if got.Rows[i][c] != want.Int(c, i) {
					return fmt.Errorf("row %d col %s: %v, want %d", i, f.Name, got.Rows[i][c], want.Int(c, i))
				}
			case storage.TFloat:
				g, ok := got.Rows[i][c].(float64)
				w := want.Float(c, i)
				if !ok || (g != w && math.Abs(g-w) > 1e-9*math.Max(math.Abs(g), math.Abs(w))) {
					return fmt.Errorf("row %d col %s: %v, want %v", i, f.Name, got.Rows[i][c], w)
				}
			default:
				if got.Rows[i][c] != want.Str(c, i) {
					return fmt.Errorf("row %d col %s: %v, want %q", i, f.Name, got.Rows[i][c], want.Str(c, i))
				}
			}
		}
	}
	return nil
}

// percentile is the nearest-rank p-th percentile of xs and the number of
// samples it was taken over. It returns 0 for no samples.
func percentile(xs []float64, p float64) (float64, int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], len(s)
}

// above is how many of n samples lie beyond the nearest-rank p-th
// percentile: a percentile is reported with confidence only when this is at
// least 10.
func above(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

func median(xs []float64) float64 {
	v, _ := percentile(xs, 50)
	return v
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
