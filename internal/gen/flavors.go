package gen

import (
	"fmt"
	"math/rand"

	"graphkeys/internal/eqrel"
	"graphkeys/internal/graph"
	"graphkeys/internal/keys"
)

// This file provides the domain-flavored simulators standing in for the
// real datasets of §6 (which are not redistributable here): a Google+
// style social-attribute network with 30 entity types and 30 keys, and
// a DBpedia-style knowledge base with 495 entity types and 100 keys
// including the Fig. 7 key shapes. Node/edge counts scale with the
// Scale parameter; the duplicate-planting structure (two overlapping
// account universes for Google+, redundantly ingested resources for
// DBpedia) mirrors the entity-resolution task the paper evaluates.

// FlavorConfig controls the flavored generators.
type FlavorConfig struct {
	Seed int64
	// Scale multiplies the base entity counts; 1.0 is the unit size
	// (a few hundred entities), and benchmarks sweep fractions of it.
	Scale float64
}

// Google builds the Google+-flavored workload: users of two social
// networks with profile attributes (employer, university, place, ...),
// friend edges, and a planted overlap of accounts present in both
// networks — the social-network reconciliation task of the paper's
// introduction. 30 entity types, 30 keys; users are identified by
// screen name plus employer (recursive, mutually with employers
// identified by name plus a member), attribute entities by name and a
// containing place wildcard.
func Google(cfg FlavorConfig) (*Workload, error) {
	if cfg.Scale <= 0 {
		return nil, fmt.Errorf("gen: Scale must be positive")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := graph.New()
	w := &Workload{Graph: g}

	nUsers := scaled(120, cfg.Scale)
	nAttr := scaled(24, cfg.Scale) // per attribute type
	dupUsers := nUsers / 6
	attrTypes := []string{
		"employer", "university", "place", "major", "degree", "school",
		"hometown", "industry", "department", "club", "team", "language",
		"interest", "skill", "title", "conference", "community", "group",
		"platform", "device", "browser", "carrier", "app", "game",
		"publisher", "label", "venue", "event", "series",
	} // 29 attribute types + user = 30 types

	// DSL: user key (recursive via employer), employer key (recursive
	// via user: mutual recursion), value-based keys for the rest.
	dsl := `
key KUser for user {
    x -screen_name-> sn*
    x -works_at-> $e:employer
}
key KUserEmail for user {
    x -screen_name-> sn*
    x -email-> em*
}
key KEmployer for employer {
    x -name-> n*
    $u:user -works_at-> x
}
key KUniversity for university {
    x -name-> n*
    x -located_in-> _:place
}
`
	for _, at := range attrTypes {
		if at == "employer" || at == "university" || at == "device" {
			continue
		}
		dsl += fmt.Sprintf("key K%s for %s {\n    x -name-> n*\n}\n", at, at)
	}
	set, err := keys.ParseString(dsl)
	if err != nil {
		return nil, fmt.Errorf("gen: google DSL: %v", err)
	}
	w.Keys = set

	// Attribute entities. Duplicated fraction per type shares names.
	attrs := make(map[string][]graph.NodeID)
	for _, at := range attrTypes {
		dups := nAttr / 6
		for i := 0; i < nAttr; i++ {
			e := g.MustAddEntity(fmt.Sprintf("%s%d", at, i), at)
			attrs[at] = append(attrs[at], e)
			name := fmt.Sprintf("%s-name-%d", at, i)
			if i < 2*dups {
				name = fmt.Sprintf("%s-dupname-%d", at, i/2)
			}
			g.MustAddTriple(e, "name", g.AddValue(name))
		}
		// Universities gain a located_in place edge for KUniversity.
		if at == "university" {
			for _, u := range attrs[at] {
				g.MustAddTriple(u, "located_in", g.MustAddEntity(
					fmt.Sprintf("uniplace_%d", rng.Intn(nAttr)), "place"))
			}
		}
	}

	// Expected pairs for duplicated attribute entities. Value-based
	// types: name sharing suffices. Universities: name sharing plus the
	// located_in wildcard (every university has one), so their planted
	// pairs are identified too. Employers have only the recursive
	// KEmployer; their identified pairs come from the user overlap
	// below. "device" has no key at all: its planted pairs stay
	// unidentified load.
	for _, at := range attrTypes {
		if at == "employer" || at == "device" {
			continue
		}
		dups := nAttr / 6
		for j := 0; j < dups; j++ {
			w.Expected = append(w.Expected,
				eqrel.MakePair(int32(attrs[at][2*j]), int32(attrs[at][2*j+1])))
		}
	}

	// Users of network A; the first dupUsers of them also exist in
	// network B with the same screen name. Even-indexed overlap
	// accounts share the employer entity (identified by KUser via the
	// reflexive employer pair); odd-indexed ones work at the two
	// members of a planted duplicate-employer pair and carry an email,
	// so KUserEmail identifies the accounts first and KEmployer then
	// identifies the employer pair — the mutual-recursion cascade of
	// the paper's Q1/Q3.
	empDups := nAttr / 6
	employerPairSeen := make(map[eqrel.Pair]bool)
	for i := 0; i < nUsers; i++ {
		ua := g.MustAddEntity(fmt.Sprintf("netA_u%d", i), "user")
		sn := fmt.Sprintf("sn-%d", i)
		g.MustAddTriple(ua, "screen_name", g.AddValue(sn))
		g.MustAddTriple(ua, "studied_at", attrs["university"][rng.Intn(len(attrs["university"]))])
		g.MustAddTriple(ua, "lives_in", attrs["place"][rng.Intn(len(attrs["place"]))])
		if i >= dupUsers {
			g.MustAddTriple(ua, "works_at", attrs["employer"][rng.Intn(len(attrs["employer"]))])
			continue
		}
		ub := g.MustAddEntity(fmt.Sprintf("netB_u%d", i), "user")
		g.MustAddTriple(ub, "screen_name", g.AddValue(sn))
		if i%2 == 0 || empDups == 0 {
			emp := attrs["employer"][rng.Intn(len(attrs["employer"]))]
			g.MustAddTriple(ua, "works_at", emp)
			g.MustAddTriple(ub, "works_at", emp)
		} else {
			m := (i / 2) % empDups
			emp1, emp2 := attrs["employer"][2*m], attrs["employer"][2*m+1]
			g.MustAddTriple(ua, "works_at", emp1)
			g.MustAddTriple(ub, "works_at", emp2)
			email := g.AddValue(fmt.Sprintf("email-%d@example.org", i))
			g.MustAddTriple(ua, "email", email)
			g.MustAddTriple(ub, "email", email)
			ep := eqrel.MakePair(int32(emp1), int32(emp2))
			if !employerPairSeen[ep] {
				employerPairSeen[ep] = true
				w.Expected = append(w.Expected, ep)
			}
		}
		w.Expected = append(w.Expected, eqrel.MakePair(int32(ua), int32(ub)))
	}
	// Friend edges (noise for the matcher, realism for the graph).
	users := g.EntitiesOfType(mustType(g, "user"))
	for _, u := range users {
		for k := 0; k < 3; k++ {
			g.MustAddTriple(u, "friend", users[rng.Intn(len(users))])
		}
	}
	sortExpected(w.Expected)
	return w, nil
}

// DBpedia builds the DBpedia-flavored workload: 495 entity types (the
// few with Fig. 7 keys plus filler domain types), 100 keys. Books are
// identified by name, a cover artist wildcard and their publisher
// (recursive); companies by their name, CEO's name and parent company
// (recursive, the middle key of Fig. 7); artists by name, birth date
// and birth place name (value-based with a wildcard, the right key of
// Fig. 7). Duplicates are planted as redundantly-ingested resources.
func DBpedia(cfg FlavorConfig) (*Workload, error) {
	if cfg.Scale <= 0 {
		return nil, fmt.Errorf("gen: Scale must be positive")
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 7))
	g := graph.New()
	w := &Workload{Graph: g}

	dsl := `
key KBook for book {
    x -name-> n*
    x -cover_artist-> _:artist
    x -publisher-> $c:company
}
key KCompany for company {
    x -name-> n1*
    x -ceo-> _p:person
    _p:person -name-> n2*
    x -parent_company-> $pc:company
}
key KCompanyHQ for company {
    x -name-> n*
    x -hq_city-> city*
}
key KArtist for artist {
    x -name-> n1*
    x -birth_date-> d*
    x -birth_place-> _l:location
    _l:location -name-> n2*
}
key KPerson for person {
    x -name-> n*
    x -birth_date-> d*
}
key KLocation for location {
    x -name-> n*
    x -country-> c*
}
`
	// Filler: 94 more value-based keys over filler types (so ||Σ|| =
	// 100 as in the paper), plus enough unkeyed filler types to reach
	// 495 entity types overall.
	const fillerKeyed = 94
	for i := 0; i < fillerKeyed; i++ {
		dsl += fmt.Sprintf("key KF%02d for ftype%02d {\n    x -f_attr%02d-> v*\n}\n", i, i, i)
	}
	set, err := keys.ParseString(dsl)
	if err != nil {
		return nil, fmt.Errorf("gen: dbpedia DSL: %v", err)
	}
	w.Keys = set

	nPer := scaled(30, cfg.Scale)
	dups := nPer / 6

	// Locations.
	var locations []graph.NodeID
	for i := 0; i < nPer; i++ {
		l := g.MustAddEntity(fmt.Sprintf("loc%d", i), "location")
		locations = append(locations, l)
		name := fmt.Sprintf("loc-name-%d", i)
		if i < 2*dups {
			name = fmt.Sprintf("loc-dupname-%d", i/2)
		}
		g.MustAddTriple(l, "name", g.AddValue(name))
		g.MustAddTriple(l, "country", g.AddValue(fmt.Sprintf("country-%d", i%7)))
	}
	// The planted same-name location pairs differ in country
	// (consecutive indices land in different country buckets mod 7),
	// so KLocation never identifies them: they are near-miss load that
	// exercises the pairing filter, and none enter the ground truth.

	// Persons (CEOs etc.).
	var persons []graph.NodeID
	for i := 0; i < nPer; i++ {
		p := g.MustAddEntity(fmt.Sprintf("person%d", i), "person")
		persons = append(persons, p)
		name := fmt.Sprintf("person-name-%d", i)
		date := fmt.Sprintf("19%02d-01-02", i%60)
		if i < 2*dups {
			name = fmt.Sprintf("person-dupname-%d", i/2)
			date = fmt.Sprintf("dup-date-%d", i/2)
		}
		g.MustAddTriple(p, "name", g.AddValue(name))
		g.MustAddTriple(p, "birth_date", g.AddValue(date))
	}
	for j := 0; j < dups; j++ {
		w.Expected = append(w.Expected, eqrel.MakePair(int32(persons[2*j]), int32(persons[2*j+1])))
	}

	// Artists: duplicates share name, date and birth-place *name* (via
	// distinct location entities with equal names — the wildcard plus
	// value-variable shape of Fig. 7 right).
	var artists []graph.NodeID
	for i := 0; i < nPer; i++ {
		a := g.MustAddEntity(fmt.Sprintf("artist%d", i), "artist")
		artists = append(artists, a)
		name := fmt.Sprintf("artist-name-%d", i)
		date := fmt.Sprintf("18%02d-03-04", i%60)
		var place graph.NodeID
		if i < 2*dups {
			name = fmt.Sprintf("artist-dupname-%d", i/2)
			date = fmt.Sprintf("artist-dupdate-%d", i/2)
			// Distinct location entities sharing a name.
			place = g.MustAddEntity(fmt.Sprintf("artist_birthloc_%d_%d", i/2, i%2), "location")
			g.MustAddTriple(place, "name", g.AddValue(fmt.Sprintf("birthloc-dup-%d", i/2)))
		} else {
			place = locations[rng.Intn(len(locations))]
		}
		g.MustAddTriple(a, "name", g.AddValue(name))
		g.MustAddTriple(a, "birth_date", g.AddValue(date))
		g.MustAddTriple(a, "birth_place", place)
	}
	for j := 0; j < dups; j++ {
		w.Expected = append(w.Expected, eqrel.MakePair(int32(artists[2*j]), int32(artists[2*j+1])))
	}

	// Companies: a root company plus duplicates that share name, CEO
	// name (distinct person entities with equal names are fine: the CEO
	// is a wildcard with a value condition) and the same parent-company
	// entity (reflexive entity-variable pair).
	root := g.MustAddEntity("company_root", "company")
	g.MustAddTriple(root, "name", g.AddValue("RootCo"))
	g.MustAddTriple(root, "hq_city", g.AddValue("RootCity"))
	var companies []graph.NodeID
	for i := 0; i < nPer; i++ {
		c := g.MustAddEntity(fmt.Sprintf("company%d", i), "company")
		companies = append(companies, c)
		name := fmt.Sprintf("company-name-%d", i)
		city := fmt.Sprintf("city-%d", i)
		if i < 2*dups {
			name = fmt.Sprintf("company-dupname-%d", i/2)
			city = fmt.Sprintf("dupcity-%d", i/2)
		}
		g.MustAddTriple(c, "name", g.AddValue(name))
		g.MustAddTriple(c, "hq_city", g.AddValue(city))
		g.MustAddTriple(c, "ceo", persons[i%len(persons)])
		g.MustAddTriple(c, "parent_company", root)
	}
	for j := 0; j < dups; j++ {
		w.Expected = append(w.Expected, eqrel.MakePair(int32(companies[2*j]), int32(companies[2*j+1])))
	}

	// Books: duplicates share a name and have cover artists
	// (wildcards). The first half of the planted book pairs publish at
	// the two members of a planted duplicate-company pair, so their
	// identification must wait for the company pair (a dependency
	// cascade); the rest share one publisher entity (reflexive pair).
	var books []graph.NodeID
	for i := 0; i < nPer; i++ {
		b := g.MustAddEntity(fmt.Sprintf("book%d", i), "book")
		books = append(books, b)
		name := fmt.Sprintf("book-name-%d", i)
		if i < 2*dups {
			name = fmt.Sprintf("book-dupname-%d", i/2)
		}
		g.MustAddTriple(b, "name", g.AddValue(name))
		g.MustAddTriple(b, "cover_artist", artists[rng.Intn(len(artists))])
		switch {
		case i < 2*dups && (i/2) < dups/2:
			// Partner 2j -> companies[2j], partner 2j+1 -> companies[2j+1]:
			// a planted duplicate-company pair.
			g.MustAddTriple(b, "publisher", companies[i])
		case i < 2*dups:
			g.MustAddTriple(b, "publisher", companies[(i/2)%len(companies)])
		default:
			g.MustAddTriple(b, "publisher", companies[rng.Intn(len(companies))])
		}
	}
	for j := 0; j < dups; j++ {
		w.Expected = append(w.Expected, eqrel.MakePair(int32(books[2*j]), int32(books[2*j+1])))
	}

	// Filler keyed types with planted value duplicates.
	for ft := 0; ft < fillerKeyed; ft++ {
		tn := fmt.Sprintf("ftype%02d", ft)
		n := scaled(6, cfg.Scale)
		fdups := n / 6
		var es []graph.NodeID
		for i := 0; i < n; i++ {
			e := g.MustAddEntity(fmt.Sprintf("%s_e%d", tn, i), tn)
			es = append(es, e)
			v := fmt.Sprintf("%s-val-%d", tn, i)
			if i < 2*fdups {
				v = fmt.Sprintf("%s-dupval-%d", tn, i/2)
			}
			g.MustAddTriple(e, fmt.Sprintf("f_attr%02d", ft), g.AddValue(v))
		}
		for j := 0; j < fdups; j++ {
			w.Expected = append(w.Expected, eqrel.MakePair(int32(es[2*j]), int32(es[2*j+1])))
		}
	}
	// Unkeyed filler types to reach 495 types in total.
	already := g.NumTypes()
	for i := already; i < 495; i++ {
		e := g.MustAddEntity(fmt.Sprintf("filler_t%d_e0", i), fmt.Sprintf("filler%03d", i))
		g.MustAddTriple(e, "filler_attr", g.AddValue(fmt.Sprintf("fv%d", i)))
	}
	sortExpected(w.Expected)
	return w, nil
}

func scaled(base int, scale float64) int {
	n := int(float64(base) * scale)
	if n < 2 {
		n = 2
	}
	return n
}

func mustType(g *graph.Graph, name string) graph.TypeID {
	t, ok := g.TypeByName(name)
	if !ok {
		panic("gen: missing type " + name)
	}
	return t
}
