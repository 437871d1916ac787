package main

import (
	"net/http"
	"testing"
	"time"
)

// TestServeHTTPServerTimeouts: the serve command's http.Server bounds
// header reads, whole-request reads and idle keep-alives, and leaves
// writes unbounded for the long-running optimize endpoint.
func TestServeHTTPServerTimeouts(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	if hs.Handler == nil {
		t.Fatal("handler not installed")
	}
	for _, tc := range []struct {
		name      string
		got, want time.Duration
	}{
		{"ReadHeaderTimeout", hs.ReadHeaderTimeout, serveReadHeaderTimeout},
		{"ReadTimeout", hs.ReadTimeout, serveReadTimeout},
		{"IdleTimeout", hs.IdleTimeout, serveIdleTimeout},
	} {
		if tc.got <= 0 || tc.got != tc.want {
			t.Errorf("%s = %v, want %v", tc.name, tc.got, tc.want)
		}
	}
	if hs.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want none (POST /v1/optimize runs for seconds)", hs.WriteTimeout)
	}
}
