/**
 * @file
 * Minimal JSON for the sweep-result cache's JSONL store: one pull reader
 * (JsonReader) and a small document model (Json) built on top of it.
 *
 * Deliberately tiny and dependency-free; three properties matter more
 * than generality:
 *
 *  - **One tokenizer.** JsonReader is the only JSON parser in the repo.
 *    The store reads typed values straight out of a line's text with it
 *    (no tree per row, in the spirit of simdjson's on-demand API), and
 *    Json::parse is a thin tree builder over it for the small documents
 *    the observer tools diff.
 *  - **Exact numbers.** Numbers follow the RFC 8259 grammar and convert
 *    through std::from_chars; overflow is an error, never a saturated
 *    value. Tree values keep their literal text (Json::number_literal),
 *    so a `%.17g` double or a full-range uint64 survives dump -> parse ->
 *    dump byte-identically — the warm-run CSV must equal the cold-run
 *    CSV to the byte.
 *  - **Deterministic output.** Object members keep insertion order and
 *    dump() is canonical (no whitespace), so equal documents serialize
 *    equally and store segments diff/merge cleanly.
 */
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace autocomm::cache {

/** One JSON value (null / bool / number / string / array / object). */
class Json
{
  public:
    enum class Type { Null, Bool, Number, String, Array, Object };

    Json() = default;

    // ---- constructors --------------------------------------------------
    static Json null();
    static Json boolean(bool v);
    /** A number from its literal text (validated by the to_* readers). */
    static Json number_literal(std::string literal);
    static Json number(double v);             ///< %.17g (exact round trip)
    static Json number(long long v);
    static Json number(unsigned long long v);
    static Json string(std::string v);
    static Json array();
    static Json object();

    // ---- inspection ----------------------------------------------------
    Type type() const { return type_; }
    bool is_object() const { return type_ == Type::Object; }
    bool is_array() const { return type_ == Type::Array; }

    /** Throw support::UserError unless the value has the given shape. */
    double to_double() const;
    long long to_int() const;
    unsigned long long to_uint() const;
    const std::string& to_string() const;

    /** Array elements (throws unless array). */
    const std::vector<Json>& items() const;
    void push_back(Json v);

    /** Object members in insertion order (throws unless object). */
    const std::vector<std::pair<std::string, Json>>& members() const;

    /** Object member by key; null when absent (throws unless object). */
    const Json* find(const std::string& key) const;
    /** Object member by key; throws support::UserError when absent. */
    const Json& at(const std::string& key) const;
    /** Append a member (insertion order is preserved on dump). */
    void set(std::string key, Json v);

    // ---- serialization -------------------------------------------------
    /** Compact canonical serialization. */
    std::string dump() const;

    /** Parse one document (a tree built by JsonReader); nullopt (with
     * *error set) on malformed input. Trailing garbage after the
     * document is an error. */
    static std::optional<Json> parse(std::string_view text,
                                     std::string* error = nullptr);

  private:
    Type type_ = Type::Null;
    bool bool_ = false;
    /** Number literal or string payload, by type_. */
    std::string scalar_;
    std::vector<Json> items_;
    std::vector<std::pair<std::string, Json>> members_;

    void dump_to(std::string& out) const;
    /** The number literal (throws unless number). */
    const std::string& number_text() const;
};

/**
 * A forward-only cursor over borrowed JSON text. Each read consumes one
 * value and throws support::UserError (naming the byte offset) when the
 * text there is not the expected, well-formed value; whitespace before a
 * value is skipped. Containers nest at most kMaxDepth deep, so a corrupt
 * line of repeated '[' fails as malformed input instead of overflowing
 * the stack.
 */
class JsonReader
{
  public:
    static constexpr int kMaxDepth = 128;

    explicit JsonReader(std::string_view text) : text_(text) {}

    /** Kind of the next value (throws at end of input or on a byte
     * that starts no value). */
    Json::Type peek();

    void read_null();
    bool read_bool();
    /** A string value with escapes (and surrogate pairs) decoded. */
    std::string read_string();
    /** A number's literal text, checked against the RFC 8259 grammar. */
    std::string_view read_number();
    /** A number converted whole; out-of-range values and literals the
     * type cannot represent (a fraction for an integer, a sign for an
     * unsigned) throw. */
    double read_double();
    long long read_int();
    unsigned long long read_uint();

    /** Validate and consume one value of any type. */
    void skip();
    /** skip(), returning the exact text span the value occupied. */
    std::string_view raw();

    /**
     * Consume an object, calling @p on_member(std::string_view key) once
     * per member with the cursor on the member's value; the callback
     * must consume that value (read it or skip() it). The key view is
     * valid until the callback returns.
     */
    template <class F> void read_object(F&& on_member);
    /** Consume an array, calling @p on_element() once per element; the
     * callback must consume the element. */
    template <class F> void read_array(F&& on_element);

    /** Require that only whitespace remains. */
    void finish();

  private:
    std::string_view text_;
    std::size_t pos_ = 0;
    int depth_ = 0;

    [[noreturn]] void fail(const char* what) const;
    void skip_ws();
    /** Skip whitespace and consume @p c, or fail. */
    void expect(char c);
    /** After whitespace: consume @p c and return true if it is next. */
    bool consume(char c);
    /** After an element: true on ',', false on @p close, else fail. */
    bool next_or_close(char close);
    void enter();
};

template <class F>
void
JsonReader::read_object(F&& on_member)
{
    expect('{');
    enter();
    if (!consume('}')) {
        do {
            const std::string key = read_string();
            expect(':');
            on_member(std::string_view(key));
        } while (next_or_close('}'));
    }
    --depth_;
}

template <class F>
void
JsonReader::read_array(F&& on_element)
{
    expect('[');
    enter();
    if (!consume(']')) {
        do
            on_element();
        while (next_or_close(']'));
    }
    --depth_;
}

} // namespace autocomm::cache
