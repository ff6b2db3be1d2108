package gplusd

import (
	"context"
	"net/http/httptest"
	"testing"

	"gplus/internal/gplusapi"
	"gplus/internal/growth"
)

func growthContents(t *testing.T) []Content {
	t.Helper()
	cfg := growth.DefaultConfig()
	cfg.Epochs = 5
	cfg.InvitationEpochs = 3
	cfg.SeedUsers = 200
	cfg.MaxUsers = 10_000
	snaps, err := growth.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	contents := make([]Content, len(snaps))
	for i := range snaps {
		ids, profiles := snaps[i].ServableUsers()
		contents[i] = Content{IDs: ids, Profiles: profiles, Graph: snaps[i].Graph}
	}
	return contents
}

func TestEvolvingServerAdvances(t *testing.T) {
	contents := growthContents(t)
	srv := NewEvolving(contents, Options{}, 10)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := &gplusapi.Client{BaseURL: ts.URL, HTTPClient: ts.Client()}
	ctx := context.Background()

	first := fetchStats(t, ts.URL)
	// Drive enough requests to advance through every epoch.
	for i := 0; i < 10*len(contents)+5; i++ {
		fetchStats(t, ts.URL)
	}
	last := fetchStats(t, ts.URL)
	if srv.Epoch() != len(contents)-1 {
		t.Errorf("epoch = %d, want %d", srv.Epoch(), len(contents)-1)
	}
	if last.Users <= first.Users {
		t.Errorf("service did not grow during requests: %d -> %d", first.Users, last.Users)
	}

	// A user who joined in a late epoch is invisible early but resolvable
	// at the end.
	lateID := contents[len(contents)-1].IDs[len(contents[len(contents)-1].IDs)-1]
	if _, err := client.FetchProfile(ctx, lateID); err != nil {
		t.Errorf("late joiner unfetchable at final epoch: %v", err)
	}
}

func TestEvolvingServerStableIDs(t *testing.T) {
	contents := growthContents(t)
	// A founding user's id must resolve in every snapshot.
	id := contents[0].IDs[0]
	for epoch, c := range contents {
		found := false
		for _, candidate := range c.IDs[:1] {
			if candidate == id {
				found = true
			}
		}
		if !found {
			t.Fatalf("founding user id missing at epoch %d", epoch)
		}
	}
}
