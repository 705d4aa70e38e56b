package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

func TestSameSeedSameScriptAndData(t *testing.T) {
	views := []string{"view1", "view2"}
	for i := 0; i < 20; i++ {
		if a, b := brushScript(7, i, 1000, views), brushScript(7, i, 1000, views); !reflect.DeepEqual(a, b) {
			t.Fatalf("brush session %d differs between two scripts from seed 7", i)
		}
		if a, b := reportScript(7, i), reportScript(7, i); !reflect.DeepEqual(a, b) {
			t.Fatalf("report session %d differs between two scripts from seed 7", i)
		}
	}
	if reflect.DeepEqual(brushScript(7, 0, 1000, views), brushScript(8, 0, 1000, views)) {
		t.Fatal("seeds 7 and 8 give the same brush script")
	}
	a, b := brushData(5000, 7), brushData(5000, 7)
	if !reflect.DeepEqual(a.Cols, b.Cols) {
		t.Fatal("brush data differs between two generations from seed 7")
	}
	if reflect.DeepEqual(a.Cols, brushData(5000, 8).Cols) {
		t.Fatal("seeds 7 and 8 give the same brush data")
	}
}

func TestBrushScriptRepeatShare(t *testing.T) {
	s := brushScript(3, 0, 1000, []string{"view1"})
	seen := map[string]bool{}
	repeats, interactions := 0, 0
	for _, st := range s {
		if st.kind != stepTrace {
			continue
		}
		interactions++
		if st.repeat != seen[st.class] {
			t.Fatalf("step %s: repeat=%v, but seen before=%v", st.class, st.repeat, seen[st.class])
		}
		if st.repeat {
			repeats++
		}
		seen[st.class] = true
	}
	if interactions != brushSteps || repeats*4 != interactions {
		t.Fatalf("%d repeats in %d interactions, want a quarter of %d", repeats, interactions, brushSteps)
	}
}

func TestPercentileIsNearestRankWithCount(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 .. 1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {1, 1}} {
		if got, n := percentile(xs, c.p); got != c.want || n != 100 {
			t.Errorf("p%v = %v over %d samples, want %v over 100", c.p, got, n, c.want)
		}
	}
	// Nearest rank of three samples at p50 is the 2nd; no interpolation.
	if got, n := percentile([]float64{5, 1, 4}, 50); got != 4 || n != 3 {
		t.Errorf("p50 of {5,1,4} = %v over %d, want 4 over 3", got, n)
	}
	if got, n := percentile(nil, 95); got != 0 || n != 0 {
		t.Errorf("p95 of nothing = %v over %d, want 0 over 0", got, n)
	}
	if a := above(200, 95); a != 10 {
		t.Errorf("above(200, 95) = %d, want 10", a)
	}
	if a := above(100, 95); a != 5 {
		t.Errorf("above(100, 95) = %d, want 5", a)
	}
}

func TestRefusedAndTransportErrorsCountAsFailed(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case strings.HasPrefix(r.URL.Path, "/v1/sessions/busy/"):
			w.WriteHeader(http.StatusTooManyRequests)
		case strings.HasPrefix(r.URL.Path, "/v1/sessions/down/"):
			w.WriteHeader(http.StatusServiceUnavailable)
		default:
			w.Write([]byte(`{"row_count":0}`))
		}
	}))
	c := newClient(ts.URL, ts.Client())
	ctx := context.Background()
	p := &phase{}
	st := brushTrace("view1", "d2", 0)
	for _, id := range []string{"ok", "busy", "down"} {
		p.count(c.do(ctx, c.sc.Session(id), st), id)
	}
	ts.Close() // nothing listens any more: a transport error
	p.count(c.do(ctx, c.sc.Session("ok"), st), "ok")

	if p.attempted != 4 || p.failed != 3 {
		t.Fatalf("%d attempted, %d failed; want 4 and 3", p.attempted, p.failed)
	}
	for _, cause := range []string{"busy: status 429", "down: status 503", "ok: transport error"} {
		if p.causes[cause] != 1 {
			t.Errorf("cause %q counted %d times, want 1 (causes %v)", cause, p.causes[cause], p.causes)
		}
	}
	if got := failedFrac(p.attempted, p.failed); got != 0.75 {
		t.Errorf("failed_frac = %v, want 0.75", got)
	}
}
