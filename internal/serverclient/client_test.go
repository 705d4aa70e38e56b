package serverclient_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"smoke/internal/core"
	"smoke/internal/serr"
	"smoke/internal/server"
	"smoke/internal/serverclient"
)

func startServer(t *testing.T) (*httptest.Server, *serverclient.Client) {
	t.Helper()
	db := core.Open()
	srv := server.New(server.Config{DB: db})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		_ = srv.Close()
		db.Close()
	})
	return ts, serverclient.New(ts.URL, ts.Client())
}

// TestEmptyRidsTraceNothing: an explicit empty seed list is a zero-seed
// trace, not "trace everything" — the client must send it, and it must
// answer exactly what the raw request body answers.
func TestEmptyRidsTraceNothing(t *testing.T) {
	ts, c := startServer(t)
	ctx := context.Background()
	fields := []serverclient.Field{{Name: "region", Type: "string"}, {Name: "amount", Type: "float"}}
	rows := [][]any{{"emea", 10.0}, {"apac", 20.0}, {"emea", 30.0}}
	if err := c.CreateTable(ctx, "orders", fields, rows, ""); err != nil {
		t.Fatal(err)
	}
	sess, err := c.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(ctx, "base", serverclient.QueryRequest{
		SQL: "SELECT region, SUM(amount) AS total FROM orders GROUP BY region",
	}); err != nil {
		t.Fatal(err)
	}
	got, err := sess.Trace(ctx, "base", serverclient.TraceRequest{Direction: "backward", Table: "orders", Rids: []int64{}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/sessions/"+sess.ID+"/results/base/trace", "application/json",
		bytes.NewReader([]byte(`{"direction":"backward","table":"orders","rids":[]}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var raw serverclient.Result
	if err := serverclient.Decode(resp.StatusCode, body, &raw); err != nil {
		t.Fatal(err)
	}
	if got.N != 0 || raw.N != 0 {
		t.Fatalf("empty seed list traced %d rows through the client and %d raw, want 0 and 0", got.N, raw.N)
	}
	all, err := sess.Trace(ctx, "base", serverclient.TraceRequest{Direction: "backward", Table: "orders"})
	if err != nil {
		t.Fatal(err)
	}
	if all.N != 3 {
		t.Fatalf("nil seed list traced %d rows, want all 3", all.N)
	}
}

// TestErrorBodyDecodes: the uniform error body the server writes decodes to
// the same status, kind, and SQL position.
func TestErrorBodyDecodes(t *testing.T) {
	rec := httptest.NewRecorder()
	server.WriteError(rec, serr.At(serr.Invalid, 7, "sql: unexpected token"))
	err := serverclient.Decode(rec.Code, rec.Body.Bytes(), nil)
	var se *serverclient.Error
	if !errors.As(err, &se) {
		t.Fatalf("want *serverclient.Error, got %v", err)
	}
	if se.Status != http.StatusBadRequest || se.Kind != "invalid" || se.Pos != 7 || !se.Structured {
		t.Fatalf("decoded %+v, want status 400, kind invalid, pos 7", se)
	}

	// End to end: a positioned parse error from a live server.
	_, c := startServer(t)
	_, err = c.Query(context.Background(), serverclient.QueryRequest{SQL: "SELECT x FROM"})
	if !errors.As(err, &se) {
		t.Fatalf("want *serverclient.Error, got %v", err)
	}
	if se.Status != http.StatusBadRequest || se.Kind != "invalid" || se.Pos < 0 {
		t.Fatalf("decoded %+v, want a positioned 400", se)
	}

	// A body that is not the uniform shape still yields an *Error.
	err = serverclient.Decode(http.StatusBadGateway, []byte("upstream down"), nil)
	if !errors.As(err, &se) || se.Structured || se.Kind != "internal" || se.Message != "upstream down" || se.Pos != -1 {
		t.Fatalf("unstructured body decoded to %+v", err)
	}
}

// TestLargeIntSurvivesNormalize: an int64 above 2^53 (not representable as
// a float64) decodes exactly.
func TestLargeIntSurvivesNormalize(t *testing.T) {
	const big = int64(1)<<53 + 1
	body := []byte(`{"columns":["x","y"],"types":["int","float"],"rows":[[9007199254740993,1.5]],"row_count":1}`)
	var res serverclient.Result
	if err := serverclient.Decode(http.StatusOK, body, &res); err != nil {
		t.Fatal(err)
	}
	if v, ok := res.Rows[0][0].(int64); !ok || v != big {
		t.Fatalf("decoded %v (%T), want int64 %d", res.Rows[0][0], res.Rows[0][0], big)
	}
	if v, ok := res.Rows[0][1].(float64); !ok || v != 1.5 {
		t.Fatalf("decoded %v (%T), want float64 1.5", res.Rows[0][1], res.Rows[0][1])
	}
}
