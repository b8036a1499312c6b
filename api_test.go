package hwprof_test

import (
	"context"
	"net"
	"testing"
	"time"

	"hwprof"
)

// TestConnectContextCancelStopsRedial: the ctx handed to Connect governs
// reconnect dials — cancelling it aborts a session stuck redialing.
func TestConnectContextCancelStopsRedial(t *testing.T) {
	// A listener that accepts nothing useful: grab a port, then close it so
	// every dial fails after the first.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err = hwprof.Connect(ctx, ln.Addr().String(),
		hwprof.WithBackoff(time.Hour, 0), hwprof.WithMaxAttempts(1))
	if err == nil {
		t.Fatal("Connect to a dead address must fail")
	}
}
