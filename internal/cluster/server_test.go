package cluster

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// The coordinator edge decodes request bodies the way a backend does:
// a body declared over the 64 MiB bound is a 413 in the /v1 envelope,
// and an unknown field is named with the backend's message, on
// POST /v1/jobs, POST /v1/jobs:batch and inside a batch entry.
func TestClusterRequestDecoding(t *testing.T) {
	c, _, _ := newFleet(t, 1)
	h := NewServer(c)
	for _, tc := range []struct {
		path, body    string
		contentLength int64
		status        int
		want          string
	}{
		{"/v1/jobs", `{}`, 64<<20 + 1, http.StatusRequestEntityTooLarge, `job spec larger than`},
		{"/v1/jobs:batch", `{}`, 64<<20 + 1, http.StatusRequestEntityTooLarge, `batch larger than`},
		{"/v1/jobs", `{"kind":"enrich","bogus":1}`, 0, http.StatusBadRequest, `unknown field \"bogus\" in job spec`},
		{"/v1/jobs:batch", `{"jobs":[],"bogus":1}`, 0, http.StatusBadRequest, `unknown field \"bogus\" in batch`},
		{"/v1/jobs:batch", `{"jobs":[{"kind":"enrich","bogus":1}]}`, 0, http.StatusOK, `unknown field \"bogus\" in job spec`},
	} {
		req := httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body))
		if tc.contentLength > 0 {
			req.ContentLength = tc.contentLength
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		body := rec.Body.String()
		if rec.Code != tc.status || !strings.Contains(body, tc.want) || !strings.Contains(body, `"invalid_spec"`) {
			t.Errorf("POST %s %s = %d %s, want %d with %s", tc.path, tc.body, rec.Code, body, tc.status, tc.want)
		}
	}
}
