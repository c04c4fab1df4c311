package kconfig

import "testing"

// FuzzKconfigParse drives the Kconfig parser and everything downstream of
// a parsed tree. Every source must end in an error or a tree, never a
// panic, and on a tree the default assignment, its validation, the
// dependency order, the printer and the conversion to a configuration
// space must all run. The seeds are this package's test fixtures.
func FuzzKconfigParse(f *testing.F) {
	f.Add(sampleKconfig)
	f.Add(Generate(Census{Bool: 12, Tristate: 8, String: 2, Hex: 2, Int: 4}, 1))
	for _, src := range []string{
		"config X\n\tbool\n\tdepends on (A || B) && !C\n",
		"config X\n\tbool\n\tdepends on A != B\n",
		"config X\n\tbool \"oops\n",
		"config X\n\tbool\n\tdepends on A & B\n",
		"config X\n\tbool\n\tdepends on (A && B\n",
		"flurble X\n",
		"config\n\tbool\n",
		"menu \"m\"\nconfig X\n\tbool\n",
		"source \"net/Kconfig\"\n",
		"config TOP\n\tbool\nif TOP\nconfig SUB\n\tbool \"sub option\"\n\tdefault y\nendif\n",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		tree, err := Parse(src)
		if err != nil {
			if tree != nil {
				t.Fatalf("Parse(%q) returned a tree with error %v", src, err)
			}
			return
		}
		tree.Validate(tree.DefaultConfig())
		tree.DependencyOrder()
		_ = tree.String()
		// ToSpace may reject a tree (say, an inverted range); it must not panic.
		_, _ = tree.ToSpace("fuzz")
	})
}
