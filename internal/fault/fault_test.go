package fault

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func openTemp(t *testing.T) *os.File {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(t.TempDir(), "f"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// TestFileCountsAndPassthrough: with no rules the wrapper is transparent
// and counts every operation — the discovery pass of the crash matrix.
func TestFileCountsAndPassthrough(t *testing.T) {
	osf := openTemp(t)
	f := NewFile(osf)
	for i := 0; i < 3; i++ {
		if _, err := f.Write([]byte("abc")); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	w, s := f.Counts()
	if w != 3 || s != 1 {
		t.Fatalf("counts = (%d writes, %d syncs), want (3, 1)", w, s)
	}
	got, err := os.ReadFile(osf.Name())
	if err != nil || !bytes.Equal(got, []byte("abcabcabc")) {
		t.Fatalf("read back %q, err %v", got, err)
	}
}

// TestFileFailsNthWriteShort: the armed write persists exactly Short
// bytes, fails with the planted error, and every later operation fails
// with the same sticky error — the disk does not come back.
func TestFileFailsNthWriteShort(t *testing.T) {
	osf := openTemp(t)
	f := NewFile(osf, Rule{Op: OpWrite, Nth: 2, Err: ErrIO, Short: 2})
	if _, err := f.Write([]byte("aaaa")); err != nil {
		t.Fatal(err)
	}
	n, err := f.Write([]byte("bbbb"))
	if !errors.Is(err, ErrIO) || n != 2 {
		t.Fatalf("2nd write = (%d, %v), want (2, ErrIO)", n, err)
	}
	if _, err := f.Write([]byte("cccc")); !errors.Is(err, ErrIO) {
		t.Fatalf("write after fault = %v, want sticky ErrIO", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrIO) {
		t.Fatalf("sync after fault = %v, want sticky ErrIO", err)
	}
	data, err := os.ReadFile(osf.Name())
	if err != nil || string(data) != "aaaabb" {
		t.Fatalf("on disk %q, err %v; want the short prefix \"aaaabb\"", data, err)
	}
}

// TestFileFailsNthSync: ENOSPC on the 2nd fsync, first one clean.
func TestFileFailsNthSync(t *testing.T) {
	f := NewFile(openTemp(t), Rule{Op: OpSync, Nth: 2, Err: ErrNoSpace})
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("2nd sync = %v, want ErrNoSpace", err)
	}
}

// TestProxyForwardAndKill: bytes round-trip through the proxy; KillAll
// severs the live connection (the client sees an error or EOF), and a
// NEW connection through the same proxy works — reset, not shutdown.
func TestProxyForwardAndKill(t *testing.T) {
	// Upstream echo server.
	up, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	go func() {
		for {
			c, err := up.Accept()
			if err != nil {
				return
			}
			go func() { io.Copy(c, c); c.Close() }()
		}
	}()

	p, err := NewProxy("127.0.0.1:0", up.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	dial := func() net.Conn {
		t.Helper()
		c, err := net.Dial("tcp", p.Addr())
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	echo := func(c net.Conn, msg string) error {
		if _, err := c.Write([]byte(msg)); err != nil {
			return err
		}
		buf := make([]byte, len(msg))
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.ReadFull(c, buf); err != nil {
			return err
		}
		if string(buf) != msg {
			t.Fatalf("echo = %q, want %q", buf, msg)
		}
		return nil
	}

	c1 := dial()
	defer c1.Close()
	if err := echo(c1, "hello"); err != nil {
		t.Fatal(err)
	}
	if n := p.KillAll(); n != 1 {
		t.Fatalf("KillAll cut %d pairs, want 1", n)
	}
	// The severed connection must fail — first use may still succeed on
	// a race, but it cannot keep echoing forever.
	dead := false
	for i := 0; i < 10 && !dead; i++ {
		dead = echo(c1, "after-kill") != nil
	}
	if !dead {
		t.Fatal("connection survived KillAll")
	}
	c2 := dial()
	defer c2.Close()
	if err := echo(c2, "fresh"); err != nil {
		t.Fatalf("fresh connection after KillAll: %v", err)
	}
	if p.Accepted() < 2 || p.Killed() != 1 {
		t.Fatalf("accepted=%d killed=%d", p.Accepted(), p.Killed())
	}
}

// TestProxyBlackhole: with the blackhole on, writes vanish — the reader
// times out instead of erroring; turning it off restores flow for new
// data.
func TestProxyBlackhole(t *testing.T) {
	up, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	go func() {
		for {
			c, err := up.Accept()
			if err != nil {
				return
			}
			go func() { io.Copy(c, c); c.Close() }()
		}
	}()
	p, err := NewProxy("127.0.0.1:0", up.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	p.SetBlackhole(true)
	if _, err := c.Write([]byte("swallowed")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 9)
	c.SetReadDeadline(time.Now().Add(150 * time.Millisecond))
	if _, err := c.Read(buf); err == nil {
		t.Fatal("read succeeded through a blackhole")
	} else if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
		t.Fatalf("blackhole read error = %v, want timeout", err)
	}
	p.SetBlackhole(false)
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Write([]byte("visible!!")); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatalf("read after blackhole off: %v", err)
	}
}
