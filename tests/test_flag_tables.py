"""The CLI tables and the parser name the same flags.

Every flag a row of ``GEN_FLAGS``, ``STRATEGIES``, ``DYNAMICS`` or
``CONTROLLERS`` names is a flag of its subcommand, and every flag a
subcommand defines is named by a row unless it applies to every choice.
A flag added to the parser without a row, which every choice would then
accept and none would read, fails here in well under a second.
"""

from pinopt import cli

# per subcommand: an argv the parser accepts, its tables, and the flags that
# every choice takes (argparse dests), which no row names
SUBCOMMANDS = {
    "gen": (["gen", "--family", "star"], [cli.GEN_FLAGS], {"family", "seed", "out"}),
    "select": (["select", "g", "--strategy", "greedy"], [cli.STRATEGIES],
               {"graph", "strategy", "seed"}),
    "sweep": (["sweep", "g", "--strategy", "greedy", "--l-range", "1"], [cli.STRATEGIES],
              {"graph", "strategy", "seed", "with_brute_force", "out"}),
    "simulate": (["simulate", "g", "--dynamics", "chua", "--controller", "linear", "--c", "1"],
                 [cli.DYNAMICS, cli.CONTROLLERS],
                 {"graph", "pins", "pins_file", "dynamics", "controller", "c", "seed", "out_csv"}),
}


def test_every_row_flag_is_a_parser_flag_and_every_choice_flag_has_a_row():
    for command, (argv, tables, shared) in SUBCOMMANDS.items():
        defined = set(vars(cli.build_parser().parse_args(argv))) - {"command", "func"}
        named = {flag for table in tables for row in table.values() for flag in row[0] + row[1]}
        assert named - defined == set(), (command, named - defined)
        assert defined - shared - named == set(), (command, defined - shared - named)
