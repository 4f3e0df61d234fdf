/**
 * @file
 * The --config/--dump-config command-line protocol shared by the tools
 * that build a simulation from a SimConfig (dasdram_run, dasdram_fuzz).
 *
 * Protocol:
 *   --config FILE    load FILE as a JSON configuration over the tool's
 *                    defaults. Unknown keys are fatal, so typos and
 *                    files from newer builds fail loudly instead of
 *                    being silently ignored. Flags still override the
 *                    loaded values.
 *   --dump-config    print the complete effective configuration as
 *                    JSON and exit 0 — the output round-trips through
 *                    --config.
 *
 * Usage pattern:
 *   addConfigOptions(cli);
 *   cli.parse(argc, argv);
 *   SimConfig cfg;           // tool defaults
 *   loadConfigFile(cli, cfg);
 *   ... apply flag overrides to cfg ...
 *   if (dumpConfigIfRequested(cli, cfg))
 *       return 0;
 */

#ifndef DASDRAM_SIM_CONFIG_CLI_HH
#define DASDRAM_SIM_CONFIG_CLI_HH

#include "common/cli.hh"
#include "sim/sim_config.hh"

namespace dasdram
{

/** Register --config and --dump-config on @p cli. */
void addConfigOptions(CliParser &cli);

/**
 * Load the --config file (if given) over @p cfg via configFromJson —
 * unknown keys fatal, missing file fatal. No-op without --config.
 */
void loadConfigFile(const CliParser &cli, SimConfig &cfg);

/**
 * With --dump-config: print configToJson(@p cfg) to stdout and return
 * true (the caller should exit 0). Returns false otherwise.
 */
bool dumpConfigIfRequested(const CliParser &cli, const SimConfig &cfg);

} // namespace dasdram

#endif // DASDRAM_SIM_CONFIG_CLI_HH
