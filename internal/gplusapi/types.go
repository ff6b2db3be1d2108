// Package gplusapi defines the wire protocol between the gplusd service
// simulator and the crawler: the JSON documents served for profile pages
// (written from and read into profile.Profile, wire.go) and paginated
// circle lists, plus an HTTP client with retry/backoff.
package gplusapi

// CircleDir selects which circle list of a user to page through.
type CircleDir string

// The two public circle lists of a profile page (§2.1): "in" is the
// "Have user in circles" list (followers); "out" is "In user's circles"
// (followees).
const (
	CircleIn  CircleDir = "in"
	CircleOut CircleDir = "out"
)

// CirclePage is one page of a circle list.
type CirclePage struct {
	IDs           []string `json:"ids"`
	NextPageToken string   `json:"nextPageToken,omitempty"`
}

// StatsDoc is the ground-truth summary served at /stats, used by tests
// and the crawl report to compare against what was collected.
type StatsDoc struct {
	Users int   `json:"users"`
	Edges int64 `json:"edges"`
}

// SeedDoc is served at /seed: the id of a well-known popular user to
// start a crawl from (the paper seeded its BFS at Mark Zuckerberg's
// profile, one of the most popular accounts at collection time).
type SeedDoc struct {
	ID string `json:"id"`
}
