/**
 * @file
 * The one driver behind the DES figure binaries: Figs. 6-9 and the
 * `--offered-load` frontiers of Figs. 7 and 8.
 *
 * A figure is its grid of sweep points (`tables` tables of `rows`
 * rows of `cols` points), a pure `run(point) -> Cell`, and its row
 * formatter. runFigure() prints the banner, runs every point through
 * exec::sweep on `--jobs` threads, prints the tables in point-index
 * order (the same bytes for every thread count), then the epilogue,
 * and ends with the observability tail: when `--metrics-json` /
 * `--trace-json` ask for it, the figure's one instrumented run,
 * runObsScenario() and ObsSession::finish().
 */

#ifndef XUI_BENCH_FIGURE_HH
#define XUI_BENCH_FIGURE_HH

#include <cstddef>
#include <functional>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "exec/sweep.hh"
#include "obs/session.hh"
#include "obs_util.hh"
#include "stats/table.hh"

namespace xui::bench
{

/** Column c of row r of table t; the sweep runs them table-major. */
struct Point
{
    std::size_t t, r, c;
};

template <typename Cell>
struct Figure
{
    const char *title;
    const char *paperRef;
    std::size_t tables, rows, cols;
    /** Pure in its point: it runs on any sweep thread. */
    std::function<Cell(Point)> run;
    std::function<std::string(std::size_t t)> caption;
    std::vector<std::string> header;
    /** Row r of a table, from that row's `cols` cells. */
    std::function<std::vector<std::string>(std::size_t r,
                                           std::span<const Cell>)>
        row;
    /** What follows the tables, from every cell; may be empty. */
    std::function<void(const std::vector<Cell> &)> epilogue{};
    /** One run recording into the enabled session. */
    std::function<void(ObsSession &)> instrument;
};

/** Run `fig` under `opts`; returns the exit status. */
template <typename Cell>
int
runFigure(const Options &opts, const Figure<Cell> &fig)
{
    banner(fig.title, fig.paperRef);
    const std::size_t per_table = fig.rows * fig.cols;
    const std::vector<Cell> cells = exec::sweep(
        fig.tables * per_table, opts.jobs, [&](std::size_t i) {
            return fig.run(
                {i / per_table, i / fig.cols % fig.rows, i % fig.cols});
        });
    for (std::size_t t = 0; t < fig.tables; ++t) {
        TablePrinter table(fig.caption(t));
        table.setHeader(fig.header);
        for (std::size_t r = 0; r < fig.rows; ++r)
            table.addRow(fig.row(
                r, std::span(cells).subspan(t * per_table + r * fig.cols,
                                            fig.cols)));
        table.print(std::cout);
        std::cout << '\n';
    }
    if (fig.epilogue)
        fig.epilogue(cells);

    ObsSession obs(opts.metricsJson, opts.traceJson);
    if (obs.enabled())
        fig.instrument(obs);
    runObsScenario(obs, opts);
    return obs.finish();
}

} // namespace xui::bench

#endif // XUI_BENCH_FIGURE_HH
