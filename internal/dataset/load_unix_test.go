//go:build unix

package dataset

import (
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestLoadWithMissingGraphFailsFirst: a directory without graph.v2 fails
// before LoadWith reads the profile column. The column here is a FIFO
// nobody writes, so a load that opened it first would block.
func TestLoadWithMissingGraphFailsFirst(t *testing.T) {
	dir := t.TempDir()
	column := filepath.Join(dir, profilesFile)
	if err := syscall.Mkfifo(column, 0o600); err != nil {
		t.Skipf("no FIFO here: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := LoadWith(dir, Options{})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.HasPrefix(err.Error(), "dataset: opening v2 graph: ") {
			t.Errorf("LoadWith says %v, want the missing graph's error", err)
		}
	case <-time.After(10 * time.Second):
		// Unblock the reader so the load's goroutine can end.
		if f, err := os.OpenFile(column, os.O_WRONLY, 0); err == nil {
			f.Close()
		}
		<-done
		t.Fatal("LoadWith read the profile column before finding graph.v2 missing")
	}
}
