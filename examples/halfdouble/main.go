// Half-Double demo: the paper's Figure 1 as a running experiment.
//
// The classical double-sided attack flips bits on an unprotected system;
// victim-focused mitigation (Graphene-style tracker + neighbour refresh)
// stops it; the Half-Double attack then defeats the victim-focused
// mitigation by weaponizing its own refreshes — and Randomized Row-Swap
// stops every pattern because it breaks the spatial connection between
// aggressor and victim rows.
//
//	go run ./examples/halfdouble
package main

import (
	"fmt"
	"log"

	"repro/internal/attack"
	"repro/internal/service"
)

func main() {
	cfg := attack.ScaleConfig() // scaled epoch: 2400 activations, T_RH = 240
	alpha2 := attack.Alpha2For(cfg)

	defenses := []struct{ label, name string }{
		{"no defense", service.MitNone},
		{"victim-focused (Graphene-style)", service.MitGraphene},
		{"randomized row-swap (RRS)", service.MitRRS},
	}
	patterns := []func() attack.Pattern{
		func() attack.Pattern { return attack.NewDoubleSided(100) },
		func() attack.Pattern { return attack.NewHalfDouble(100) },
	}

	fmt.Println("Attacking victim row 100 for 3 refresh epochs per cell:")
	fmt.Println()
	fmt.Printf("%-34s %-18s %s\n", "defense", "double-sided", "half-double")
	fmt.Printf("%-34s %-18s %s\n", "-------", "------------", "-----------")
	for _, d := range defenses {
		mit, err := service.MitigationFactory(d.name, 1, attack.BlockHammerBlacklist)
		if err != nil {
			log.Fatal(err)
		}
		cells := make([]string, 0, 2)
		for _, mk := range patterns {
			ctl, fm := attack.NewSystem(cfg, 0, alpha2, mit)
			res := attack.Run(ctl, fm, mk(), attack.Options{Epochs: 3})
			if res.Defended() {
				cells = append(cells, "defended")
			} else {
				cells = append(cells, fmt.Sprintf("%d FLIPS", res.Flips))
			}
		}
		fmt.Printf("%-34s %-18s %s\n", d.label, cells[0], cells[1])
	}

	fmt.Println()
	fmt.Println("The half-double column is the paper's motivation: victim-focused")
	fmt.Println("mitigation refreshes the aggressor's neighbours, and those refresh")
	fmt.Println("activations hammer the row two away — only the aggressor-focused")
	fmt.Println("random swap removes the aggressor from the neighbourhood entirely.")
}
