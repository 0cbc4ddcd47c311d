package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/telemetry"
)

// postRaw posts a query body with a fixed request ID — so two replies to
// one question can be compared byte for byte — and returns the status and
// the reply.
func postRaw(t *testing.T, url string, req QueryRequest) (int, []byte) {
	t.Helper()
	body, _ := json.Marshal(req)
	hreq, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("X-Request-ID", "fixed")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func stageCount(t *testing.T, s *Server, stage string) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := s.db.Metrics().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := telemetry.ParseExposition(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fams {
		for _, smp := range f.Samples {
			if v, _ := smp.Label("stage"); smp.Name == "esh_query_stage_seconds_count" && v == stage {
				return smp.Value
			}
		}
	}
	t.Fatalf("no esh_query_stage_seconds_count for stage %q", stage)
	return 0
}

// TestPlanMemo: the second request of a text is answered from its memoized
// plan — no parse, no decompose, counted by the memo and by the stage
// histogram, not timed — with the very bytes the first got; the reply is
// the compact encoding; the trace and the flight record of a hit still
// name four stages; /v1/query/partial shares the memo; and a text that
// failed to parse or to decompose is not kept.
func TestPlanMemo(t *testing.T) {
	s, ts := newTestServer(t, testDB(t), quietConfig(), nil)
	req := QueryRequest{Asm: gccStyle, Top: 10}
	status, miss := postRaw(t, ts.URL+"/v1/query", req)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, miss)
	}
	for i := 0; i < 2; i++ {
		if _, hit := postRaw(t, ts.URL+"/v1/query", req); !bytes.Equal(hit, miss) {
			t.Fatalf("reply from the memoized plan differs from the first:\n%s\n%s", hit, miss)
		}
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, miss); err != nil {
		t.Fatal(err)
	}
	if compact.WriteByte('\n'); !bytes.Equal(compact.Bytes(), miss) {
		t.Errorf("reply is not the compact encoding plus a newline:\n%s", miss)
	}
	if got := stageCount(t, s, "decompose"); got != 1 {
		t.Errorf("three requests of one text decomposed %v times", got)
	}
	if got := stageCount(t, s, "vcp"); got != 3 {
		t.Errorf("three requests ran stage 3 %v times", got)
	}

	// A hit, traced: four stages, the first two marked and empty.
	var traced QueryResponse
	status, b := postRaw(t, ts.URL+"/v1/query?trace=1", req)
	if err := json.Unmarshal(b, &traced); err != nil || status != http.StatusOK {
		t.Fatalf("traced hit: status %d, %v", status, err)
	}
	if traced.Trace == nil || len(traced.Trace.Children) != 4 {
		t.Fatalf("traced hit has no four-stage trace: %s", b)
	}
	for i, name := range []string{"decompose", "prepare"} {
		if c := traced.Trace.Children[i]; c.Name != name || c.Attrs["plan_memo_hit"] != 1 {
			t.Errorf("stage %d of a hit is %s %v, want %s marked plan_memo_hit", i, c.Name, c.Attrs, name)
		}
	}
	var recent struct {
		Records []*telemetry.QueryRecord `json:"records"`
	}
	getJSON(t, ts.URL+"/debug/queries?n=1", &recent)
	if len(recent.Records) != 1 || len(recent.Records[0].StageMS) != 4 {
		t.Errorf("flight record of a hit: %+v", recent.Records)
	}

	// The shard endpoint asks the same memo.
	if status, b := postRaw(t, ts.URL+"/v1/query/partial", req); status != http.StatusOK {
		t.Fatalf("partial: status %d: %s", status, b)
	}
	var st StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	if m := st.PlanMemo; m.Hits != 4 || m.Misses != 1 || m.Evictions != 0 || m.Bytes <= len(gccStyle) || m.BudgetBytes != planMemoBudget {
		t.Errorf("plan_memo after one miss and four hits: %+v", m)
	}

	// Failures leave nothing behind, however often they are sent.
	kept := st.PlanMemo.Bytes
	for _, bad := range []struct {
		asm  string
		want int
	}{
		{"proc bad\n\tfrobnicate rax\n\tret\nendp", http.StatusBadRequest},       // does not parse
		{"proc bad\n\tjmp nowhere\n\tret\nendp", http.StatusUnprocessableEntity}, // does not decompose
	} {
		for i := 0; i < 2; i++ {
			if status, b := postRaw(t, ts.URL+"/v1/query", QueryRequest{Asm: bad.asm}); status != bad.want {
				t.Errorf("%q: status %d, want %d: %s", bad.asm, status, bad.want, b)
			}
		}
	}
	getJSON(t, ts.URL+"/v1/stats", &st)
	if m := st.PlanMemo; m.Bytes != kept || m.Hits != 4 || m.Misses != 5 {
		t.Errorf("plan_memo after four failed requests: %+v, want %d bytes, 4 hits, 5 misses", m, kept)
	}
}

// TestPlanMemoBudget puts 64 distinct request texts of about 1 MiB through
// the memo — the key is the client's text, so this is what an attacker, or
// a client that posts annotated listings, does to it — with a hot procedure
// requested between them. The byte gauge never passes the budget, and the
// hot entry keeps hitting: an entry is at most an eighth of the budget, so
// at least eight must come in behind the hot one before it is the oldest
// and over, and then it misses once and is back. A text too large to admit
// changes nothing. (One large text goes over HTTP; the rest take runQuery's
// miss path by hand, which keeps the JSON codec out of a -race run.)
func TestPlanMemoBudget(t *testing.T) {
	s, ts := newTestServer(t, testDB(t), quietConfig(), nil)
	pad := strings.Repeat("; sixty-four bytes of commentary that the parser reads and drops\n", 1<<14)
	held := func() int {
		t.Helper()
		n := int(s.plans.stats().Held)
		if n > planMemoBudget {
			t.Fatalf("plan memo holds %d bytes, budget %d", n, planMemoBudget)
		}
		return n
	}
	hot := func() {
		t.Helper()
		if status, b := postRaw(t, ts.URL+"/v1/query", QueryRequest{Asm: gccStyle}); status != http.StatusOK {
			t.Fatalf("status %d: %s", status, b)
		}
		held()
	}
	miss := func(text string) {
		t.Helper()
		if s.plans.get(text) != nil {
			t.Fatal("a text never sent before hit the memo")
		}
		procs, err := asm.Parse(text[:len(gccStyle)+8])
		if err != nil {
			t.Fatal(err)
		}
		pl, err := s.db.Plan(context.Background(), procs[0])
		if err != nil {
			t.Fatal(err)
		}
		s.plans.put(text, pl)
		held()
	}
	big := func(i int) string {
		return strings.Replace(gccStyle, "checksum_gcc", fmt.Sprintf("big_%04d", i), 1) + "\n" + pad
	}
	hot()
	if status, b := postRaw(t, ts.URL+"/v1/query", QueryRequest{Asm: big(0)}); status != http.StatusOK {
		t.Fatalf("status %d: %s", status, b)
	}
	if held() < len(pad) {
		t.Fatalf("a 1 MiB text sent over HTTP left the memo holding %d bytes", held())
	}
	const bodies = 64
	for i := 1; i < bodies; i++ {
		hot()
		miss(big(i))
	}
	hot()
	if n := s.plans.stats().Evictions; n < bodies-planMemoBudget>>20 {
		t.Errorf("%d MiB-sized texts through a %d MiB budget evicted %d plans", bodies, planMemoBudget>>20, n)
	}
	if hits := s.plans.hits.Value(); hits < bodies-bodies/8 {
		t.Errorf("the hot text hit %d times in %d, want at least %d", hits, bodies, bodies-bodies/8)
	}

	before, evicted := held(), s.plans.stats().Evictions
	miss(big(bodies) + pad + pad)
	if held() != before || s.plans.stats().Evictions != evicted {
		t.Errorf("a text above the admission bound moved the memo from %d to %d bytes", before, held())
	}
}

// TestWarmRequestAllocs pins what a warm request — a memoized text over
// cached rows — allocates from the handler down: request decoding, the
// engine call, the flight record, the encoded reply. Parsing and
// decomposing the procedure again would add hundreds of objects.
func TestWarmRequestAllocs(t *testing.T) {
	s, _ := newTestServer(t, testDB(t), quietConfig(), nil)
	h := s.Handler()
	body, _ := json.Marshal(QueryRequest{Asm: gccStyle})
	do := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	do() // plans the text and fills the rows
	do() // leaves the rows complete
	if allocs := testing.AllocsPerRun(50, do); allocs > 150 {
		t.Errorf("a warm request allocates %.0f objects, want at most 150", allocs)
	}
	if hits, misses := s.plans.hits.Value(), s.plans.misses.Value(); misses != 1 || hits < 52 {
		t.Errorf("plan memo: %d hits, %d misses", hits, misses)
	}
	if got := stageCount(t, s, "decompose"); got != 1 {
		t.Errorf("the warm requests decomposed %v times", got-1)
	}
}
