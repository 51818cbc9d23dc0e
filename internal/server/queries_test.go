package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/authz"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/profile"
	"repro/internal/wire"
)

func TestReachAndWhoCanOverWire(t *testing.T) {
	_, c := testServer(t, "")
	_ = c.PutSubject(profile.Subject{ID: "a"})
	_ = c.PutSubject(profile.Subject{ID: "b"})
	_, _ = c.AddAuthorization(authz.New(iv("[7, 100]"), iv("[9, 200]"), "a", graph.SCEGO, 0))
	_, _ = c.AddAuthorization(authz.New(iv("[1, 100]"), iv("[1, 200]"), "a", graph.SCESectionA, 0))

	r, err := c.Reach("a", graph.SCESectionA)
	if err != nil || !r.Reachable || r.Earliest != 9 {
		t.Fatalf("reach = %+v, %v", r, err)
	}
	r, err = c.Reach("b", graph.SCESectionA)
	if err != nil || r.Reachable {
		t.Fatalf("b reach = %+v, %v", r, err)
	}
	who, err := c.WhoCan(graph.SCESectionA)
	if err != nil || len(who) != 1 || who[0] != "a" {
		t.Fatalf("whocan = %v, %v", who, err)
	}
	// Missing parameters.
	for _, path := range []string{"/v1/queries/reach?subject=a", "/v1/queries/reach?location=x", "/v1/queries/whocan"} {
		resp, _ := http.Get(c.BaseURL + path)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s status = %d", path, resp.StatusCode)
		}
	}
}

func TestConflictsOverWire(t *testing.T) {
	_, c := testServer(t, "")
	_, _ = c.AddAuthorization(authz.New(iv("[5, 10]"), iv("[5, 20]"), "Alice", graph.CAIS, 1))
	_, _ = c.AddAuthorization(authz.New(iv("[10, 11]"), iv("[10, 30]"), "Alice", graph.CAIS, 1))

	conflicts, err := c.Conflicts()
	if err != nil || len(conflicts) != 1 || conflicts[0].Kind != "overlap" {
		t.Fatalf("conflicts = %v, %v", conflicts, err)
	}
	res, err := c.ResolveConflicts("combine")
	if err != nil || len(res) != 1 {
		t.Fatalf("resolve = %v, %v", res, err)
	}
	if !res[0].Kept.Entry.Equal(interval.MustParse("[5, 11]")) {
		t.Errorf("kept = %v", res[0].Kept)
	}
	conflicts, _ = c.Conflicts()
	if len(conflicts) != 0 {
		t.Errorf("conflicts remain: %v", conflicts)
	}
	// Unknown strategy.
	if _, err := c.ResolveConflicts("coin-flip"); err == nil {
		t.Error("bad strategy should fail")
	}
	// No conflicts: empty result, no error.
	res, err = c.ResolveConflicts("keep-first")
	if err != nil || len(res) != 0 {
		t.Errorf("idempotent resolve = %v, %v", res, err)
	}
}

func TestStatsOverWire(t *testing.T) {
	_, c := testServer(t, "")

	if err := c.PutSubject(profile.Subject{ID: "Alice"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddAuthorization(authz.New(iv("[1, 40]"), iv("[2, 60]"), "Alice", graph.SCEGO, 0)); err != nil {
		t.Fatal(err)
	}
	// Two identical queries: the second must be served from the cache.
	for i := 0; i < 2; i++ {
		if _, err := c.Inaccessible("Alice"); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cache.Hits == 0 {
		t.Errorf("expected cache hits, got %+v", stats.Cache)
	}
	if stats.Cache.Misses == 0 {
		t.Errorf("expected cache misses, got %+v", stats.Cache)
	}
}

// TestInaccessiblePartitionsUnderGrants: each /v1/queries/inaccessible
// response comes from one Algorithm-1 run on one view, so its two lists
// partition the site's locations even while grants and revokes that
// flip the answer land between and during the queries.
func TestInaccessiblePartitionsUnderGrants(t *testing.T) {
	sys, err := core.Open(core.Config{Graph: graph.NTUCampus()})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ts := httptest.NewServer(New(sys))
	defer ts.Close()
	c := wire.NewClient(ts.URL)
	corridor := []graph.ID{graph.SCESectionA, graph.SCESectionB, graph.CAIS}
	for _, l := range corridor {
		if _, err := sys.AddAuthorization(authz.New(iv("[1, 40]"), iv("[2, 60]"), "Alice", l, authz.Unlimited)); err != nil {
			t.Fatal(err)
		}
	}
	nodes := sys.Flat().Nodes

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // open and close the corridor's first hop
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			a, err := sys.AddAuthorization(authz.New(iv("[1, 40]"), iv("[2, 60]"), "Alice", graph.SCEGO, authz.Unlimited))
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := sys.RevokeAuthorization(a.ID); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	defer func() { close(stop); wg.Wait() }()

	sizes := map[int]bool{}
	for i := 0; i < 300; i++ {
		resp, err := c.Inaccessible("Alice")
		if err != nil {
			t.Fatal(err)
		}
		seen := map[graph.ID]int{}
		for _, l := range resp.Inaccessible {
			seen[l]++
		}
		for _, l := range resp.Accessible {
			seen[l]++
		}
		if len(resp.Inaccessible)+len(resp.Accessible) != len(nodes) || len(seen) != len(nodes) {
			t.Fatalf("response %d does not partition the %d locations: inaccessible %v, accessible %v",
				i, len(nodes), resp.Inaccessible, resp.Accessible)
		}
		sizes[len(resp.Accessible)] = true
	}
	t.Logf("accessible-list sizes seen: %v", sizes)
}

// TestInaccessibleResponseBytes: the route writes exactly what
// json.Encoder wrote for the response before it had its own codec, with
// a Content-Length even past net/http's 2 KiB pre-chunking buffer, and
// the client decodes it back.
func TestInaccessibleResponseBytes(t *testing.T) {
	sys, err := core.Open(core.Config{Graph: graph.NTUCampus()})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ts := httptest.NewServer(New(sys))
	defer ts.Close()
	for _, sub := range []profile.SubjectID{"Alice", "<b>&" + profile.SubjectID(strings.Repeat("é", 1500))} {
		if _, err := sys.AddAuthorization(authz.New(iv("[1, 40]"), iv("[2, 60]"), sub, graph.SCEGO, authz.Unlimited)); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Get(ts.URL + "/v1/queries/inaccessible?subject=" + url.QueryEscape(string(sub)))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		inacc, acc := sys.Partition(sub)
		var want bytes.Buffer
		_ = json.NewEncoder(&want).Encode(wire.InaccessibleResponse{Subject: sub, Inaccessible: inacc, Accessible: acc})
		if !bytes.Equal(body, want.Bytes()) {
			t.Errorf("%.20s: body\n%q\nwant\n%q", sub, body, want.Bytes())
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%.20s: Content-Length %d, Transfer-Encoding %v for a %d-byte body",
				sub, resp.ContentLength, resp.TransferEncoding, len(body))
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("Content-Type = %q", ct)
		}
		got, err := wire.NewClient(ts.URL).Inaccessible(sub)
		if err != nil || !slices.Equal(got.Inaccessible, inacc) || !slices.Equal(got.Accessible, acc) || got.Subject != sub {
			t.Errorf("%.20s: client decoded %v, %v", sub, got, err)
		}
	}
}
