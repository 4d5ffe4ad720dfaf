fn main() {
    sabench::cli::main()
}
