package main

import (
	"fmt"
	"sort"
	"strings"

	"recdb/internal/dataset"
)

// Statement kinds: the unit latencies, per-layer times and checks are
// reported by.
const (
	kindTopK    = "topk"
	kindFilter  = "filter"
	kindJoin    = "join"
	kindRead    = "read"
	kindWrite   = "write"
	kindScatter = "scatter"
)

var algos = []string{"ItemCosCF", "UserCosCF", "SVD"}

// recName is the recommender created for an algorithm.
func recName(algo string) string { return "rec_" + strings.ToLower(algo) }

// Sizes of the generated inputs. The dataset is synthetic MovieLens at
// a quarter of the users and items (235 users, 420 items, 6,250
// ratings), which keeps every table inside the 512-page buffer pool.
const (
	dataScale = 0.25
	// hotUsers is how many of the most active users paper-recommend
	// materializes the ItemCosCF scores of at set-up, so that a measured
	// share of its ItemCosCF statements plan as IndexRecommend.
	hotUsers = 4
	topK     = 10
)

// workload is one named traffic mix.
type workload struct {
	name    string
	kinds   []string // the statement kinds the mix issues
	routed  bool     // served through the shard router
	durable bool     // served from a durable home with a per-commit WAL fsync
	// models are the algorithms whose recommenders set-up creates.
	models []string
	// traceOps is how many statements a traced run replays. It is fixed
	// per workload, so the counts a traced run reports repeat exactly.
	traceOps int
	next     func(g *gen) op
}

var workloads = []*workload{
	{
		name:     "paper-recommend",
		kinds:    []string{kindTopK, kindFilter, kindJoin},
		durable:  true,
		models:   algos,
		traceOps: 240,
		next:     paperRecommend,
	},
	{
		name:     "rate-and-read",
		kinds:    []string{kindRead, kindWrite, kindTopK},
		durable:  true,
		models:   algos,
		traceOps: 4000,
		next:     rateAndRead,
	},
	{
		name:     "routed-read",
		kinds:    []string{kindRead, kindScatter, kindTopK},
		routed:   true,
		models:   []string{"SVD"},
		traceOps: 2000,
		next:     routedRead,
	},
}

func workloadNamed(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// op is one generated statement together with what its answer must
// satisfy.
type op struct {
	kind  string
	sql   string
	user  int64
	algo  string
	k     int            // recommends: the most rows allowed
	items map[int64]bool // filter: the IN-list
	genre string         // join: the genre every row must have
	item  int64          // write, scatter: the item
	value float64        // write: the new rating
}

// facts are the generated data and what the workloads derive from it.
type facts struct {
	data   *dataset.Data
	users  []int64                     // users with at least one rating, ascending
	rated  map[int64]map[int64]float64 // user → item → rating at set-up
	pairs  [][2]int64                  // every rated (user, item), in generation order
	genre  map[int64]string            // item → genre
	items  []int64                     // every item id, ascending
	genres []string                    // distinct genres, sorted
	// active is every rated user, most ratings first (ties by id).
	active []int64
}

func newFacts(data *dataset.Data) *facts {
	f := &facts{
		data:  data,
		rated: make(map[int64]map[int64]float64),
		genre: make(map[int64]string),
	}
	for _, r := range data.Ratings {
		m := f.rated[r.User]
		if m == nil {
			m = make(map[int64]float64)
			f.rated[r.User] = m
			f.users = append(f.users, r.User)
		}
		m[r.Item] = r.Value
		f.pairs = append(f.pairs, [2]int64{r.User, r.Item})
	}
	sort.Slice(f.users, func(i, j int) bool { return f.users[i] < f.users[j] })
	seen := make(map[string]bool)
	for _, it := range data.Items {
		if !seen[it.Genre] {
			seen[it.Genre] = true
			f.genres = append(f.genres, it.Genre)
		}
		f.genre[it.ID] = it.Genre
		f.items = append(f.items, it.ID)
	}
	sort.Strings(f.genres)

	f.active = append([]int64(nil), f.users...)
	sort.SliceStable(f.active, func(i, j int) bool {
		return len(f.rated[f.active[i]]) > len(f.rated[f.active[j]])
	})
	return f
}

// hot returns the users paper-recommend materializes.
func (f *facts) hot() []int64 { return f.active[:hotUsers] }

// gen draws one connection's statement stream. Streams depend only on
// the seed, the workload and the connection index; every choice is an
// independent draw.
type gen struct {
	r     *rng
	f     *facts
	conn  int
	conns int
}

func newGen(f *facts, seed int64, w *workload, conn, conns int) *gen {
	return &gen{r: newRNG(seed, w.name, conn), f: f, conn: conn, conns: conns}
}

func (g *gen) uniformUser() int64 { return g.f.users[g.r.intn(len(g.f.users))] }

// activeUser draws a user with probability proportional to how many
// ratings the user has, by drawing a rating: the users who rate most
// query most, with the skew the data has.
func (g *gen) activeUser() int64 { return g.f.pairs[g.r.intn(len(g.f.pairs))][0] }

const recSelect = `SELECT R.iid, R.ratingval FROM ratings R RECOMMEND R.iid TO R.uid ON R.ratingval USING %s WHERE R.uid = %d`

func topKOp(user int64, algo string) op {
	return op{kind: kindTopK, user: user, algo: algo, k: topK,
		sql: fmt.Sprintf(recSelect+` ORDER BY R.ratingval DESC LIMIT %d`, algo, user, topK)}
}

// paperRecommend is the paper's query shapes (Fig. 6, 8 and 10): equal
// thirds of top-10, IN-list selection over ~10% of the items, and a join
// with items under a genre filter; the algorithm is uniform over the
// three recommenders and the user is drawn by activity.
func paperRecommend(g *gen) op {
	user := g.activeUser()
	algo := algos[g.r.intn(len(algos))]
	switch g.r.intn(3) {
	case 0:
		return topKOp(user, algo)
	case 1:
		n := len(g.f.items) / 10
		pick := g.r.sample(len(g.f.items), n)
		items := make(map[int64]bool, n)
		list := make([]string, n)
		for i, p := range pick {
			id := g.f.items[p]
			items[id] = true
			list[i] = fmt.Sprint(id)
		}
		return op{kind: kindFilter, user: user, algo: algo, k: n, items: items,
			sql: fmt.Sprintf(recSelect+` AND R.iid IN (%s) ORDER BY R.ratingval DESC`, algo, user, strings.Join(list, ", "))}
	default:
		genre := g.f.genres[g.r.intn(len(g.f.genres))]
		return op{kind: kindJoin, user: user, algo: algo, k: topK, genre: genre,
			sql: fmt.Sprintf(`SELECT R.iid, R.ratingval, I.name FROM ratings R, items I RECOMMEND R.iid TO R.uid ON R.ratingval USING %s WHERE R.uid = %d AND R.iid = I.iid AND I.genre = '%s' ORDER BY R.ratingval DESC LIMIT %d`, algo, user, genre, topK)}
	}
}

func readOp(user int64) op {
	return op{kind: kindRead, user: user,
		sql: fmt.Sprintf(`SELECT iid, ratingval FROM ratings WHERE uid = %d`, user)}
}

// rateAndRead is per-key traffic: 70% reads of one user's ratings, 20%
// durable re-ratings of a pair the user has rated, 10% SVD top-10, all
// over uniform users. A connection re-rates only the pairs whose index
// is its own modulo the connection count, so each pair's last
// acknowledged value is its final one.
func rateAndRead(g *gen) op {
	switch c := g.r.intn(10); {
	case c < 7:
		return readOp(g.uniformUser())
	case c < 9:
		slots := (len(g.f.pairs) - g.conn + g.conns - 1) / g.conns
		p := g.f.pairs[g.r.intn(slots)*g.conns+g.conn]
		v := float64(1 + g.r.intn(5))
		return op{kind: kindWrite, user: p[0], item: p[1], value: v,
			sql: fmt.Sprintf(`UPDATE ratings SET ratingval = %.1f WHERE uid = %d AND iid = %d`, v, p[0], p[1])}
	default:
		return topKOp(g.uniformUser(), "SVD")
	}
}

// routedRead is router traffic: 75% owner-routed reads, 15%
// scatter-gather top-10 of one item's raters merged across shards, 10%
// owner-routed SVD top-10.
func routedRead(g *gen) op {
	switch c := g.r.intn(20); {
	case c < 15:
		return readOp(g.uniformUser())
	case c < 18:
		item := g.f.items[g.r.intn(len(g.f.items))]
		return op{kind: kindScatter, item: item, k: topK,
			sql: fmt.Sprintf(`SELECT uid, iid, ratingval FROM ratings WHERE iid = %d ORDER BY ratingval DESC, uid LIMIT %d`, item, topK)}
	default:
		return topKOp(g.uniformUser(), "SVD")
	}
}
