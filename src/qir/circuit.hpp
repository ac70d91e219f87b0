/**
 * @file
 * The Circuit container: an ordered list of gates over a fixed qubit and
 * classical-bit register, with a fluent builder API and statistics helpers.
 *
 * Circuits are value types; passes take a Circuit and return a new Circuit
 * (or annotations referring to gate indices of an immutable Circuit).
 */
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "qir/gate.hpp"
#include "qir/types.hpp"

namespace autocomm::qir {

/** Aggregate gate statistics (used by Table 2). */
struct CircuitStats
{
    std::size_t total_gates = 0;       ///< All gates (excluding barriers).
    std::size_t single_qubit_gates = 0;
    std::size_t two_qubit_gates = 0;   ///< All 2q gates of any kind.
    std::size_t cx_gates = 0;          ///< CX only.
    std::size_t three_qubit_gates = 0;
    std::size_t measurements = 0;
    std::size_t depth = 0;             ///< Qubit-chain circuit depth.
};

/** An ordered quantum circuit over `num_qubits` qubits and `num_cbits` bits. */
class Circuit
{
  public:
    Circuit() = default;

    /** Create an empty circuit with the given register sizes. */
    explicit Circuit(int num_qubits, int num_cbits = 0);

    int num_qubits() const { return num_qubits_; }
    int num_cbits() const { return num_cbits_; }

    /** Grow the classical register and return the index of the new bit. */
    CbitId add_cbit();

    std::size_t size() const { return gates_.size(); }
    bool empty() const { return gates_.empty(); }

    const Gate& operator[](std::size_t i) const { return gates_[i]; }
    const std::vector<Gate>& gates() const { return gates_; }

    std::vector<Gate>::const_iterator begin() const { return gates_.begin(); }
    std::vector<Gate>::const_iterator end() const { return gates_.end(); }

    /** Reserve storage for @p n gates, so appending up to that many does
     * not reallocate. */
    void reserve(std::size_t n) { gates_.reserve(n); }

    /** Append a gate; validates operand indices. */
    Circuit& add(const Gate& g);

    /** Append all gates of @p other (registers must be compatible). */
    Circuit& append(const Circuit& other);

    /** @name Fluent builders for common gates
     * @{ */
    Circuit& h(QubitId q) { return add(Gate::h(q)); }
    Circuit& x(QubitId q) { return add(Gate::x(q)); }
    Circuit& y(QubitId q) { return add(Gate::y(q)); }
    Circuit& z(QubitId q) { return add(Gate::z(q)); }
    Circuit& s(QubitId q) { return add(Gate::s(q)); }
    Circuit& sdg(QubitId q) { return add(Gate::sdg(q)); }
    Circuit& t(QubitId q) { return add(Gate::t(q)); }
    Circuit& tdg(QubitId q) { return add(Gate::tdg(q)); }
    Circuit& rx(QubitId q, double v) { return add(Gate::rx(q, v)); }
    Circuit& ry(QubitId q, double v) { return add(Gate::ry(q, v)); }
    Circuit& rz(QubitId q, double v) { return add(Gate::rz(q, v)); }
    Circuit& p(QubitId q, double v) { return add(Gate::p(q, v)); }
    Circuit&
    u3(QubitId q, double a, double b, double c)
    {
        return add(Gate::u3(q, a, b, c));
    }
    Circuit& cx(QubitId c, QubitId t) { return add(Gate::cx(c, t)); }
    Circuit& cz(QubitId a, QubitId b) { return add(Gate::cz(a, b)); }
    Circuit&
    cp(QubitId a, QubitId b, double v)
    {
        return add(Gate::cp(a, b, v));
    }
    Circuit&
    crz(QubitId c, QubitId t, double v)
    {
        return add(Gate::crz(c, t, v));
    }
    Circuit&
    rzz(QubitId a, QubitId b, double v)
    {
        return add(Gate::rzz(a, b, v));
    }
    Circuit& swap(QubitId a, QubitId b) { return add(Gate::swap(a, b)); }
    Circuit&
    ccx(QubitId c0, QubitId c1, QubitId t)
    {
        return add(Gate::ccx(c0, c1, t));
    }
    Circuit&
    measure(QubitId q, CbitId bit)
    {
        return add(Gate::measure(q, bit));
    }
    Circuit& reset(QubitId q) { return add(Gate::reset(q)); }
    Circuit& barrier() { return add(Gate::barrier()); }
    /** @} */

    /** Gate statistics (Table 2 columns). */
    CircuitStats stats() const;

    /** Count of gates of a particular kind. */
    std::size_t count(GateKind kind) const;

    /** Circuit depth: longest per-qubit dependency chain, barriers fence. */
    std::size_t depth() const;

    /** The adjoint circuit (reversed order, inverted gates); unitary only. */
    Circuit inverse() const;

    /**
     * Return a new circuit with qubit q replaced by perm[q]. @p perm must be
     * a permutation of [0, num_qubits).
     */
    Circuit remap_qubits(const std::vector<QubitId>& perm) const;

    /** Multi-line textual rendering (one gate per line). */
    std::string to_string() const;

  private:
    int num_qubits_ = 0;
    int num_cbits_ = 0;
    std::vector<Gate> gates_;
};

} // namespace autocomm::qir
